"""The 2-D systolic mesh: PE grid, wiring, and synchronous stepping.

:class:`SystolicArray` owns a ``rows x cols`` grid of
:class:`~repro.systolic.pe.ProcessingElement` and implements the
neighbour wiring of Fig. 1: activations move west-to-east; the second
operand (OS) or the partial sums (WS) move north-to-south. The mesh is
stepped synchronously with a stage/commit protocol so that every hop costs
exactly one cycle, as in the pipelined RTL.

:class:`MeshConfig` captures the hardware configuration axes the paper
varies or fixes: array size (16x16 in the paper) and datapath types (INT8
operands, INT32 accumulation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datatypes import INT8, INT32, IntType
from repro.faults.injector import NO_FAULTS, FaultInjector
from repro.systolic.mac import MacUnit
from repro.systolic.pe import ProcessingElement
from repro.systolic.signals import SignalProbe

__all__ = ["MeshConfig", "SystolicArray"]


@dataclass(frozen=True)
class MeshConfig:
    """Hardware configuration of the systolic mesh.

    Attributes
    ----------
    rows, cols:
        Mesh dimensions. The paper uses 16x16 (the largest size their FPGA
        could synthesise); this simulator has no such restriction.
    input_dtype, acc_dtype:
        Operand and accumulator types; the paper's configuration is
        INT8 / INT32.
    """

    rows: int = 16
    cols: int = 16
    input_dtype: IntType = INT8
    acc_dtype: IntType = INT32

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError(
                f"mesh dimensions must be positive, got {self.rows}x{self.cols}"
            )

    @property
    def num_macs(self) -> int:
        """Total MAC units — the size of an exhaustive SSF campaign."""
        return self.rows * self.cols

    @classmethod
    def paper(cls) -> "MeshConfig":
        """The configuration of Table I: 16x16, INT8."""
        return cls(rows=16, cols=16, input_dtype=INT8, acc_dtype=INT32)


class SystolicArray:
    """A fault-injectable systolic mesh.

    Parameters
    ----------
    config:
        Mesh dimensions and datapath types.
    injector:
        Fault overlay shared by every MAC unit.
    probe:
        Optional signal observer attached to every MAC (tracing/tests).
    """

    def __init__(
        self,
        config: MeshConfig,
        injector: FaultInjector = NO_FAULTS,
        probe: SignalProbe | None = None,
    ) -> None:
        self.config = config
        self.injector = injector
        self._grid: list[list[ProcessingElement]] = [
            [
                ProcessingElement(
                    MacUnit(
                        row=r,
                        col=c,
                        injector=injector,
                        input_dtype=config.input_dtype,
                        acc_dtype=config.acc_dtype,
                        probe=probe,
                    )
                )
                for c in range(config.cols)
            ]
            for r in range(config.rows)
        ]

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def pe(self, row: int, col: int) -> ProcessingElement:
        """The PE at mesh position ``(row, col)``."""
        return self._grid[row][col]

    @property
    def rows(self) -> int:
        return self.config.rows

    @property
    def cols(self) -> int:
        return self.config.cols

    # ------------------------------------------------------------------
    # Configuration between tile operations
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear every PE register (fresh tile operation)."""
        for row in self._grid:
            for pe in row:
                pe.reset_state()

    def preload_weights(self, weights: np.ndarray) -> None:
        """Load a stationary weight tile, zero-padding to the mesh size.

        ``weights[i, j]`` lands in PE ``(i, j)``; positions beyond the tile
        hold zero, matching how an accelerator pads partial tiles.
        """
        weights = np.asarray(weights)
        if weights.shape[0] > self.rows or weights.shape[1] > self.cols:
            raise ValueError(
                f"weight tile {weights.shape} exceeds mesh "
                f"{self.rows}x{self.cols}"
            )
        for r in range(self.rows):
            for c in range(self.cols):
                if r < weights.shape[0] and c < weights.shape[1]:
                    self._grid[r][c].preload_weight(int(weights[r, c]))
                else:
                    self._grid[r][c].preload_weight(0)

    def preload_accumulators(self, values: np.ndarray) -> None:
        """Initialise the per-PE accumulators (OS bias tile)."""
        values = np.asarray(values)
        if values.shape[0] > self.rows or values.shape[1] > self.cols:
            raise ValueError(
                f"bias tile {values.shape} exceeds mesh {self.rows}x{self.cols}"
            )
        for r in range(values.shape[0]):
            for c in range(values.shape[1]):
                self._grid[r][c].preload_accumulator(int(values[r, c]))

    # ------------------------------------------------------------------
    # Synchronous stepping
    # ------------------------------------------------------------------
    def step_output_stationary(
        self, a_feeds: list[int], b_feeds: list[int], cycle: int
    ) -> None:
        """Advance one OS cycle.

        ``a_feeds[i]`` enters mesh row ``i`` from the west; ``b_feeds[j]``
        enters mesh column ``j`` from the north.
        """
        grid = self._grid
        for r in range(self.rows):
            row_pes = grid[r]
            north_row = grid[r - 1] if r > 0 else None
            for c in range(self.cols):
                pe = row_pes[c]
                a_in = row_pes[c - 1].a_out if c > 0 else a_feeds[r]
                b_in = north_row[c].down_out if north_row is not None else b_feeds[c]
                pe.stage_output_stationary(a_in, b_in, cycle)
        self._commit()

    def step_weight_stationary(
        self, a_feeds: list[int], psum_feeds: list[int], cycle: int
    ) -> None:
        """Advance one WS cycle.

        ``a_feeds[i]`` enters mesh row ``i`` from the west; ``psum_feeds[j]``
        (the bias, or zero) enters column ``j`` from the north.
        """
        grid = self._grid
        for r in range(self.rows):
            row_pes = grid[r]
            north_row = grid[r - 1] if r > 0 else None
            for c in range(self.cols):
                pe = row_pes[c]
                a_in = row_pes[c - 1].a_out if c > 0 else a_feeds[r]
                psum_in = (
                    north_row[c].down_out if north_row is not None else psum_feeds[c]
                )
                pe.stage_weight_stationary(a_in, psum_in, cycle)
        self._commit()

    def _commit(self) -> None:
        for row in self._grid:
            for pe in row:
                pe.commit()

    # ------------------------------------------------------------------
    # Harvesting
    # ------------------------------------------------------------------
    def read_accumulators(self, rows: int, cols: int) -> np.ndarray:
        """Read the top-left ``rows x cols`` block of accumulators (OS)."""
        out = np.zeros((rows, cols), dtype=np.int64)
        for r in range(rows):
            for c in range(cols):
                out[r, c] = self._grid[r][c].acc
        return out

    def bottom_outputs(self, cols: int) -> list[int]:
        """Partial sums emerging from the bottom edge this cycle (WS)."""
        bottom = self._grid[self.rows - 1]
        return [bottom[c].down_out for c in range(cols)]
