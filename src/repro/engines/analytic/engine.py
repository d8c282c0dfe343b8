"""Batched ``golden + delta`` evaluation of stuck-at campaigns.

:func:`evaluate_batch` is the analytic tier's entry point: given a batch
of fault sites, it computes every experiment's faulty output as the
shared golden output plus a closed-form perturbation delta, in a few
vectorised numpy passes — no per-site workload re-simulation. Sites
whose fault the algebra cannot close over (see
:mod:`repro.engines.analytic.support`) fall back, per site, to
:meth:`Campaign.run_experiment` on the functional engine, and the
fallback count is published on the ``repro_analytic_fallback_total``
metric so a campaign's analytic coverage is observable.

The function is deliberately stateless — it builds its whole evaluation
context (operands, tiling geometry, site groups) fresh from the pickled
campaign spec on every call. That keeps it safe inside forked executor
workers: no module-level caches, no cross-call mutation, bit-identical
results wherever it runs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.campaign import Campaign, ExperimentResult
from repro.core.classifier import classify_cells, classify_pattern
from repro.core.fault_patterns import FaultPattern
from repro.datatypes import wrap_array
from repro.engines.analytic.algebra import (
    FaultLens,
    os_chain_tile,
    ws_chain_tile,
)
from repro.engines.analytic.support import supported_reason
from repro.faults.model import FaultDescriptor
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_RECORDER
from repro.ops.im2col import ConvGeometry, im2col, kernel_to_matrix
from repro.ops.tiling import TilingPlan
from repro.systolic.dataflow import Dataflow

__all__ = [
    "FALLBACK_METRIC",
    "evaluate_batch",
    "record_fallbacks",
    "unsupported_sites",
]

#: Counter incremented once per site the analytic engine could not
#: evaluate in closed form and delegated to the functional engine.
FALLBACK_METRIC = "repro_analytic_fallback_total"
_FALLBACK_HELP = (
    "Sites the analytic engine delegated to the functional engine "
    "because their fault has no closed-form delta."
)


def unsupported_sites(
    campaign: Campaign, sites: Sequence[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The subset of ``sites`` the analytic engine must fall back on.

    Pure prediction from the campaign spec (no simulation), so callers
    on either side of a process boundary agree on the count — the parent
    uses it to publish the fallback metric for work done in workers.
    """
    dataflow = campaign.workload.dataflow
    return [
        (row, col)
        for row, col in sites
        if supported_reason(campaign.fault_spec.fault_at(row, col), dataflow)
        is not None
    ]


def record_fallbacks(metrics, count: int) -> None:
    """Publish ``count`` fallback sites on the shared counter.

    One definition of the metric name/help for every caller — the
    in-process evaluator and the parallel executor's parent (workers run
    with null metrics, so the parent accounts for their batches via
    :func:`unsupported_sites`; neither side double-counts).
    """
    if count:
        metrics.counter(FALLBACK_METRIC, _FALLBACK_HELP).inc(count)


def evaluate_batch(
    campaign: Campaign,
    sites: Sequence[tuple[int, int]],
    golden: np.ndarray,
    plan: TilingPlan,
    geometry: ConvGeometry | None,
    recorder=NULL_RECORDER,
    metrics=NULL_METRICS,
) -> list[ExperimentResult]:
    """Evaluate one FI experiment per site, batched where closed forms exist.

    Returns one :class:`ExperimentResult` per entry of ``sites``, in
    input order, field-for-field identical to what
    :meth:`Campaign.run_experiment` would produce for the same sites —
    that equivalence is the engine's contract, pinned by
    ``tests/engines`` and the property suite.
    """
    dataflow = campaign.workload.dataflow
    faults = [campaign.fault_spec.fault_at(row, col) for row, col in sites]
    results: list[ExperimentResult | None] = [None] * len(sites)

    supported: list[int] = []
    fallback: list[int] = []
    for index, fault in enumerate(faults):
        if supported_reason(fault, dataflow) is None:
            supported.append(index)
        else:
            fallback.append(index)

    if fallback:
        record_fallbacks(metrics, len(fallback))
        for index in fallback:
            row, col = sites[index]
            results[index] = campaign.run_experiment(
                row, col, golden, plan, geometry, recorder=recorder
            )

    if supported:
        with recorder.span(
            "experiment.batch", cat="campaign", sites=len(supported)
        ):
            _evaluate_closed_form(
                campaign, faults, supported, golden, plan, geometry, results
            )
    return [result for result in results if result is not None]


def _gemm_operands(
    campaign: Campaign, geometry: ConvGeometry | None
) -> tuple[np.ndarray, np.ndarray]:
    """The lowered, input-wrapped GEMM operand pair of the workload.

    Regenerated from the workload spec (never shipped), exactly as the
    simulation engines receive them: conv workloads lower through
    im2col, and both operands wrap to the mesh input type — wrapping the
    whole operand once is elementwise, hence identical to the engines'
    per-tile wrap.
    """
    in_t = campaign.mesh.input_dtype
    raw_a, raw_b = campaign.workload.operands()
    if geometry is not None:
        raw_a = im2col(raw_a, geometry)
        raw_b = kernel_to_matrix(raw_b, geometry)
    return wrap_array(raw_a, in_t), wrap_array(raw_b, in_t)


def _evaluate_closed_form(
    campaign: Campaign,
    faults: list[FaultDescriptor],
    supported: list[int],
    golden: np.ndarray,
    plan: TilingPlan,
    geometry: ConvGeometry | None,
    results: list[ExperimentResult | None],
) -> None:
    """Fill ``results`` for every ``supported`` index via batched deltas."""
    in_t = campaign.mesh.input_dtype
    acc_t = campaign.mesh.acc_dtype
    a, b = _gemm_operands(campaign, geometry)
    if geometry is None:
        gemm_golden = golden
    else:
        gemm_golden = golden.transpose(0, 2, 3, 1).reshape(
            geometry.gemm_m, geometry.k
        )

    # Group sites by stuck-at family so each kernel call forces one
    # homogeneous (signal, bit, value) triple. First-seen order keeps the
    # grouping deterministic without iterating a dict, and the plain
    # tuple key skips a per-site dataclass construction and hash.
    order: list[tuple[str, int, int]] = []
    groups: dict[tuple[str, int, int], list[int]] = {}
    for position, index in enumerate(supported):
        fault = faults[index]
        key = (fault.site.signal, fault.site.bit, fault.stuck_value)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(position)

    deviation = np.zeros((len(supported), *gemm_golden.shape), dtype=np.int64)
    for key in order:
        signal, bit, stuck = key
        lens = FaultLens(
            signal=signal,
            bit=bit,
            stuck=stuck,
            input_dtype=in_t,
            acc_dtype=acc_t,
        )
        positions = np.array(groups[key], dtype=np.int64)
        rows = np.array(
            [faults[supported[p]].site.row for p in groups[key]],
            dtype=np.int64,
        )
        cols = np.array(
            [faults[supported[p]].site.col for p in groups[key]],
            dtype=np.int64,
        )
        _group_deviation(
            deviation,
            positions,
            rows,
            cols,
            a,
            b,
            gemm_golden,
            plan,
            campaign.workload.dataflow,
            campaign.mesh.rows,
            lens,
        )

    if geometry is None:
        dev_out = deviation
    else:
        dev_out = deviation.reshape(
            len(supported), geometry.n, geometry.p, geometry.q, geometry.k
        ).transpose(0, 1, 4, 2, 3)
    mask_out = dev_out != 0

    # One batched pass over the whole deviation tensor replaces the
    # per-site mask scans (sum / abs-max / np.where each cost a numpy
    # dispatch; at hundreds of sites that overhead rivals the kernels).
    # ``deviation`` is GEMM-spaced for GEMM and conv alike, counts and
    # maxima are layout-invariant, and ``np.nonzero`` on the 3-D stack
    # yields every site's cells grouped in site order.
    gemm_mask = deviation != 0
    counts = gemm_mask.sum(axis=(1, 2), dtype=np.int64)
    maxima = np.abs(deviation).max(axis=(1, 2))
    _, cell_rows, cell_cols = np.nonzero(gemm_mask)
    offsets = np.concatenate(([0], np.cumsum(counts)))

    for position, index in enumerate(supported):
        pattern = FaultPattern(
            mask=mask_out[position],
            deviation=dev_out[position],
            plan=plan,
            geometry=geometry,
        )
        if geometry is None:
            lo, hi = offsets[position], offsets[position + 1]
            classification = classify_cells(
                cell_rows[lo:hi], cell_cols[lo:hi], plan
            )
        else:
            classification = classify_pattern(pattern)
        results[index] = ExperimentResult(
            site=faults[index].site,
            classification=classification,
            num_corrupted=int(counts[position]),
            max_abs_deviation=int(maxima[position]) if counts[position] else 0,
            pattern=pattern if campaign.keep_patterns else None,
        )


def _group_deviation(
    deviation: np.ndarray,
    positions: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    gemm_golden: np.ndarray,
    plan: TilingPlan,
    dataflow: Dataflow,
    mesh_rows: int,
    lens: FaultLens,
) -> None:
    """Scatter one lens group's per-site deltas into ``deviation``.

    Walks the tiling plan exactly as :class:`~repro.ops.gemm.TiledGemm`
    does — output tiles in row-major order, reduction tiles chained
    through each output tile's accumulator — advancing every site's
    faulty state with the dataflow's kernel, then writes
    ``faulty - golden`` at the coordinates the fault reaches. Sites
    architecturally masked for a tile's shape (its MAC falls outside the
    occupied mesh region) are simply skipped: their delta stays zero.
    """
    for m_range, n_range in plan.output_tiles():
        mt = m_range.size
        nt = n_range.size
        g_tile = gemm_golden[
            m_range.start : m_range.stop, n_range.start : n_range.stop
        ]
        a_rows = a[m_range.start : m_range.stop]
        b_cols = b[:, n_range.start : n_range.stop]
        if dataflow is Dataflow.OUTPUT_STATIONARY:
            # PE (r, c) owns element (r, c) of every output tile.
            active = (rows < mt) & (cols < nt)
            if not active.any():
                continue
            r = rows[active]
            c = cols[active]
            state = np.zeros(len(r), dtype=np.int64)
            for k_range in plan.k_tiles:
                state = os_chain_tile(
                    state,
                    a_rows[:, k_range.start : k_range.stop],
                    b_cols[k_range.start : k_range.stop],
                    r,
                    c,
                    lens,
                )
            deviation[
                positions[active], m_range.start + r, n_range.start + c
            ] = state - g_tile[r, c]
        elif dataflow is Dataflow.WEIGHT_STATIONARY:
            # Mesh column c computes output column c of every tile; the
            # fault row only positions the forcing within the chain.
            active = cols < nt
            if not active.any():
                continue
            r = rows[active]
            c = cols[active]
            state = np.zeros((mt, len(c)), dtype=np.int64)
            for k_range in plan.k_tiles:
                state = ws_chain_tile(
                    state,
                    a_rows[:, k_range.start : k_range.stop],
                    b_cols[k_range.start : k_range.stop],
                    r,
                    c,
                    mesh_rows,
                    lens,
                )
            delta = state - g_tile[:, c]
            deviation[
                positions[active][:, None],
                np.arange(m_range.start, m_range.stop, dtype=np.int64)[None, :],
                (n_range.start + c)[:, None],
            ] = delta.T
        elif dataflow is Dataflow.INPUT_STATIONARY:
            # IS is WS on the transposed problem (as in the engines):
            # mesh column c computes output *row* c of every tile.
            active = cols < mt
            if not active.any():
                continue
            r = rows[active]
            c = cols[active]
            state = np.zeros((nt, len(c)), dtype=np.int64)
            for k_range in plan.k_tiles:
                a_tile = a_rows[:, k_range.start : k_range.stop]
                b_tile = b_cols[k_range.start : k_range.stop]
                state = ws_chain_tile(
                    state, b_tile.T, a_tile.T, r, c, mesh_rows, lens
                )
            delta = state - g_tile[c, :].T
            deviation[
                positions[active][:, None],
                (m_range.start + c)[:, None],
                np.arange(n_range.start, n_range.stop, dtype=np.int64)[None, :],
            ] = delta.T
        else:
            raise ValueError(f"unsupported dataflow: {dataflow!r}")
