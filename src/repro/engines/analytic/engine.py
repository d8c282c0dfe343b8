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
from repro.core.classifier import classify_batch
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
from repro.ops.tiling import TileRange, TilingPlan
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
    # per-site mask scans and classifications (each a numpy dispatch or
    # a Python loop; at hundreds of sites that overhead rivals the
    # kernels). ``deviation`` is GEMM-spaced for GEMM and conv alike,
    # counts and maxima are layout-invariant, and ``np.nonzero`` on the
    # 3-D stack yields every site's cells grouped in site order.
    gemm_mask = deviation != 0
    counts = gemm_mask.sum(axis=(1, 2), dtype=np.int64).tolist()
    maxima = np.abs(deviation).max(axis=(1, 2)).tolist()
    classifications = classify_batch(
        *np.nonzero(gemm_mask), len(supported), plan, geometry
    )

    for position, index in enumerate(supported):
        pattern = FaultPattern(
            mask=mask_out[position],
            deviation=dev_out[position],
            plan=plan,
            geometry=geometry,
        )
        results[index] = ExperimentResult(
            site=faults[index].site,
            classification=classifications[position],
            num_corrupted=counts[position],
            max_abs_deviation=maxima[position],
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

    Follows the tiling plan as :class:`~repro.ops.gemm.TiledGemm` does —
    reduction tiles chained through each output tile's accumulator —
    but batches whole tile families into each kernel call, then writes
    ``faulty - golden`` at the coordinates the fault reaches. Sites
    architecturally masked for a tile's shape (their MAC falls outside
    the occupied mesh region) are simply skipped: their delta stays
    zero.
    """
    if dataflow is Dataflow.OUTPUT_STATIONARY:
        _os_deviation(
            deviation, positions, rows, cols, a, b, gemm_golden, plan, lens
        )
    elif dataflow is Dataflow.WEIGHT_STATIONARY:
        _ws_deviation(
            deviation, positions, rows, cols, a, b, gemm_golden,
            plan.n_tiles, plan.k_tiles, mesh_rows, lens,
        )
    elif dataflow is Dataflow.INPUT_STATIONARY:
        # IS is WS on the transposed problem (as in the engines): mesh
        # column c computes output *row* c of every row tile.
        _ws_deviation(
            deviation.transpose(0, 2, 1), positions, rows, cols, b.T, a.T,
            gemm_golden.T, plan.m_tiles, plan.k_tiles, mesh_rows, lens,
        )
    else:
        raise ValueError(f"unsupported dataflow: {dataflow!r}")


def _ws_deviation(
    deviation: np.ndarray,
    positions: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    a: np.ndarray,
    w: np.ndarray,
    golden: np.ndarray,
    col_tiles: tuple[TileRange, ...],
    k_tiles: tuple[TileRange, ...],
    mesh_rows: int,
    lens: FaultLens,
) -> None:
    """WS deltas: mesh column c computes output column c of every column
    tile. Output rows are independent, so one kernel call per (column
    tile, reduction tile) covers every output row and every site."""
    for n_range in col_tiles:
        active = cols < n_range.size
        if not active.any():
            continue
        r = rows[active]
        c = cols[active]
        state = np.zeros((a.shape[0], len(c)), dtype=np.int64)
        for k_range in k_tiles:
            state = ws_chain_tile(
                state,
                a[:, k_range.start : k_range.stop],
                w[k_range.start : k_range.stop, n_range.start : n_range.stop],
                r,
                c,
                mesh_rows,
                lens,
            )
        out_cols = n_range.start + c
        deviation[positions[active], :, out_cols] = (
            state - golden[:, out_cols]
        ).T


def _os_deviation(
    deviation: np.ndarray,
    positions: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    golden: np.ndarray,
    plan: TilingPlan,
    lens: FaultLens,
) -> None:
    """OS deltas: PE (r, c) owns element (r, c) of every output tile.

    Output tiles come in at most four shapes (full or ragged in each of
    m and n); every (site, tile) pair of one shape advances through one
    kernel call per reduction tile, addressed by its global output
    coordinates and its local skew ``r + c``.
    """
    shapes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for m_range, n_range in plan.output_tiles():
        shapes.setdefault((m_range.size, n_range.size), []).append(
            (m_range.start, n_range.start)
        )
    for (mt, nt), starts in shapes.items():
        active = (rows < mt) & (cols < nt)
        if not active.any():
            continue
        # Pairs run site-major: each active site once per tile origin.
        origin = np.tile(
            np.array(starts, dtype=np.int64).T, np.count_nonzero(active)
        )
        pair_positions = np.repeat(positions[active], len(starts))
        r = np.repeat(rows[active], len(starts))
        c = np.repeat(cols[active], len(starts))
        out_rows = r + origin[0]
        out_cols = c + origin[1]
        state = np.zeros(len(r), dtype=np.int64)
        for k_range in plan.k_tiles:
            state = os_chain_tile(
                state,
                a[:, k_range.start : k_range.stop],
                b[k_range.start : k_range.stop],
                out_rows,
                out_cols,
                lens,
                skew=r + c,
                tile_shape=(mt, nt),
            )
        deviation[pair_positions, out_rows, out_cols] = (
            state - golden[out_rows, out_cols]
        )
