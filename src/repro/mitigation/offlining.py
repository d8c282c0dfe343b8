"""Faulty-column off-lining (after Burel et al.'s MOZART).

Burel, Evans and Anghel detect faulty MAC columns and disable them,
remapping computation to the healthy part of the array. This module
implements that remapping on top of the tiled GEMM executor: the logical
output columns of every tile are scattered onto the *healthy* physical
mesh columns (faulty ones receive zero weights and their outputs are
discarded), so a diagnosed stuck-at fault — whose pattern lives entirely
in its physical column under WS/OS — can never reach live data.

The price is reduced effective mesh width: with ``f`` columns off-lined,
tiles carry at most ``cols - f`` live outputs, and the executor reports
the resulting tile-count overhead.

Under IS the fault corrupts output *rows* hosted on mesh columns, so the
same slot remapping is applied to the output-row dimension instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.datatypes import wrap_array
from repro.ops.tiling import plan_gemm_tiling, split_ranges
from repro.systolic.dataflow import Dataflow

__all__ = ["OffliningReport", "OffliningGemm"]


@dataclass(frozen=True)
class OffliningReport:
    """Result of an execution with off-lined columns."""

    output: np.ndarray
    offlined_cols: tuple[int, ...]
    tiles_used: int
    tiles_baseline: int

    @property
    def overhead_ratio(self) -> float:
        """Tile-count inflation versus the healthy-mesh execution."""
        if self.tiles_baseline == 0:
            return 1.0
        return self.tiles_used / self.tiles_baseline


class OffliningGemm:
    """Tiled GEMM that avoids diagnosed faulty mesh columns.

    Parameters
    ----------
    engine:
        The faulty mesh engine (off-lining happens in the mapping, not the
        hardware — exactly MOZART's software-visible mechanism).
    dataflow:
        Mapping scheme. WS/OS faults are avoided by remapping output
        columns; IS faults by remapping output rows.
    faulty_macs:
        Diagnosed faulty MAC coordinates; only the column index matters
        (the paper's position-independence).
    """

    def __init__(
        self,
        engine,
        dataflow: Dataflow,
        faulty_macs: Iterable[tuple[int, int]],
    ) -> None:
        self.engine = engine
        self.dataflow = dataflow
        self.faulty_cols = tuple(sorted({col for _, col in faulty_macs}))
        mesh = engine.config
        self._slots = [
            col for col in range(mesh.cols) if col not in self.faulty_cols
        ]
        if not self._slots:
            raise ValueError("cannot off-line every mesh column")

    # ------------------------------------------------------------------
    def __call__(self, a: np.ndarray, b: np.ndarray) -> OffliningReport:
        """Compute ``A @ B`` without touching the off-lined columns."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(
                f"incompatible GEMM operands: {a.shape} @ {b.shape}"
            )
        m, k = a.shape
        n = b.shape[1]
        mesh = self.engine.config
        acc_dtype = mesh.acc_dtype

        if self.dataflow is Dataflow.INPUT_STATIONARY:
            # IS hosts output rows on mesh columns: off-line in row space.
            return self._run_is(a, b)

        # Live width per tile and the physical slots the logical columns
        # occupy (faulty slots carry zero weights, outputs discarded).
        live = len(self._slots)
        plan = plan_gemm_tiling(
            m, k, n, mesh, self.dataflow, tile_n=min(n, live)
        )
        baseline = plan_gemm_tiling(m, k, n, mesh, self.dataflow)

        out = np.zeros((m, n), dtype=np.int64)
        tiles = 0
        for m_range, n_range in plan.output_tiles():
            slots = self._slots[: n_range.size]
            width = slots[-1] + 1
            partial = out[
                m_range.start : m_range.stop, n_range.start : n_range.stop
            ]
            for k_range in plan.k_tiles:
                a_tile = a[
                    m_range.start : m_range.stop, k_range.start : k_range.stop
                ]
                b_tile = b[
                    k_range.start : k_range.stop, n_range.start : n_range.stop
                ]
                padded = np.zeros((k_range.size, width), dtype=np.int64)
                padded[:, slots] = b_tile
                bias = np.zeros((m_range.size, width), dtype=np.int64)
                bias[:, slots] = partial
                result = self.engine.matmul(a_tile, padded, self.dataflow, bias=bias)
                partial = result[:, slots]
                tiles += 1
            out[
                m_range.start : m_range.stop, n_range.start : n_range.stop
            ] = partial
        return OffliningReport(
            output=out,
            offlined_cols=self.faulty_cols,
            tiles_used=tiles,
            tiles_baseline=baseline.num_tile_matmuls,
        )

    # ------------------------------------------------------------------
    def _run_is(self, a: np.ndarray, b: np.ndarray) -> OffliningReport:
        """IS off-lining: scatter output rows over healthy mesh columns."""
        m, k = a.shape
        n = b.shape[1]
        mesh = self.engine.config
        live = len(self._slots)
        plan = plan_gemm_tiling(
            m, k, n, mesh, Dataflow.INPUT_STATIONARY, tile_m=min(m, live)
        )
        baseline = plan_gemm_tiling(m, k, n, mesh, Dataflow.INPUT_STATIONARY)

        out = np.zeros((m, n), dtype=np.int64)
        tiles = 0
        for m_range, n_range in plan.output_tiles():
            slots = self._slots[: m_range.size]
            height = slots[-1] + 1
            partial = out[
                m_range.start : m_range.stop, n_range.start : n_range.stop
            ]
            for k_range in plan.k_tiles:
                a_tile = a[
                    m_range.start : m_range.stop, k_range.start : k_range.stop
                ]
                b_tile = b[
                    k_range.start : k_range.stop, n_range.start : n_range.stop
                ]
                padded = np.zeros((height, k_range.size), dtype=np.int64)
                padded[slots, :] = a_tile
                bias = np.zeros((height, n_range.size), dtype=np.int64)
                bias[slots, :] = partial
                result = self.engine.matmul(
                    padded, b_tile, Dataflow.INPUT_STATIONARY, bias=bias
                )
                partial = result[slots, :]
                tiles += 1
            out[
                m_range.start : m_range.stop, n_range.start : n_range.stop
            ] = partial
        return OffliningReport(
            output=out,
            offlined_cols=self.faulty_cols,
            tiles_used=tiles,
            tiles_baseline=baseline.num_tile_matmuls,
        )
