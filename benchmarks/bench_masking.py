"""Experiment M1 — data-dependent masking (Section III-A, Challenge 2).

The paper replaces real DNN weights with a uniform all-ones matrix because
"weights ... close to zero ... can suppress the fault pattern at the
software level". This bench quantifies that choice: it sweeps operand
distributions from all-ones to mostly-zero and measures how much of the
fault pattern survives, for both stuck-at polarities.
"""

import numpy as np

from repro.core.fault_patterns import extract_pattern
from repro.core.predictor import predict_pattern
from repro.core.reports import format_table
from repro.faults import FaultInjector, FaultSite
from repro.ops.gemm import TiledGemm
from repro.ops.reference import reference_gemm
from repro.systolic import Dataflow, FunctionalSimulator, MeshConfig

from _common import banner, run_once

MESH = MeshConfig.paper()
WS = Dataflow.WEIGHT_STATIONARY
SITE = FaultSite(4, 7, "sum", 20)


def _operands(kind: str, rng: np.random.Generator):
    """Weight matrices with decreasing information content."""
    shape = (16, 16)
    if kind == "ones (paper)":
        return np.ones(shape, dtype=np.int64)
    if kind == "random int8":
        return rng.integers(-128, 128, size=shape)
    if kind == "small (|w|<=2)":
        return rng.integers(-2, 3, size=shape)
    if kind == "90% zeros":
        weights = rng.integers(-64, 64, size=shape)
        mask = rng.random(shape) < 0.9
        weights[mask] = 0
        return weights
    if kind == "all zeros":
        return np.zeros(shape, dtype=np.int64)
    raise ValueError(kind)


def run_masking_sweep():
    rng = np.random.default_rng(7)
    kinds = ["ones (paper)", "random int8", "small (|w|<=2)", "90% zeros",
             "all zeros"]
    report = []
    for kind in kinds:
        a = _operands(kind, rng)
        b = _operands(kind, rng)
        golden = reference_gemm(a, b)
        rates = []
        for stuck_value in (1, 0):
            injector = FaultInjector.single_stuck_at(SITE, stuck_value)
            result = TiledGemm(FunctionalSimulator(MESH, injector))(a, b, WS)
            pattern = extract_pattern(golden, result.output, plan=result.plan)
            support = predict_pattern(SITE, result.plan).support
            observed = pattern.num_corrupted
            possible = int(support.sum())
            rates.append(observed / possible if possible else 0.0)
        report.append((kind, rates[0], rates[1]))
    return report


def test_masking_sweep(benchmark):
    report = run_once(benchmark, run_masking_sweep)
    print(banner("M1 — fraction of the fault pattern surviving data masking"))
    print(
        format_table(
            ("operand distribution", "stuck-at-1 visible", "stuck-at-0 visible"),
            [
                (kind, f"{100 * sa1:.0f}%", f"{100 * sa0:.0f}%")
                for kind, sa1, sa0 in report
            ],
        )
    )
    by_kind = {kind: (sa1, sa0) for kind, sa1, sa0 in report}
    # The paper's anti-masking workload exposes the full stuck-at-1 pattern.
    assert by_kind["ones (paper)"][0] == 1.0
    # All-ones sums are small and positive: bit 20 is never set, so
    # stuck-at-0 is fully masked — the polarity the paper's setup hides.
    assert by_kind["ones (paper)"][1] == 0.0
    # Rich random operands expose both polarities partially.
    assert 0.0 < by_kind["random int8"][1] <= 1.0
    # All-zero operands: every partial sum is 0, so a stuck-at-1 on the
    # adder output is maximally visible while stuck-at-0 is fully hidden —
    # masking is a property of the data/polarity pair, not the data alone.
    assert by_kind["all zeros"] == (1.0, 0.0)


def run_zero_weight_masking():
    """The paper's literal mechanism: a faulty value multiplied by a zero
    weight vanishes. Fault on the weight register (b_reg) of one MAC; the
    column deviation for output row m is A[m, r] * delta_w, which is zero
    exactly where A[m, r] is zero."""
    rng = np.random.default_rng(13)
    site = FaultSite(4, 7, "b_reg", 6)
    injector = FaultInjector.single_stuck_at(site, 1)
    report = []
    for zero_share in (0.0, 0.5, 0.9, 0.99):
        a = rng.integers(1, 128, size=(256, 16))
        mask = rng.random(a.shape) < zero_share
        a[mask] = 0
        b = np.ones((16, 16), dtype=np.int64)
        golden = reference_gemm(a, b)
        result = TiledGemm(FunctionalSimulator(MESH, injector))(a, b, WS)
        pattern = extract_pattern(golden, result.output, plan=result.plan)
        support = predict_pattern(site, result.plan).support
        visible = pattern.num_corrupted / int(support.sum())
        report.append((zero_share, visible))
    return report


def test_multiplication_by_zero_masking(benchmark):
    report = run_once(benchmark, run_zero_weight_masking)
    print(banner("M1b — multiplication-by-zero masking (Challenge 2 verbatim)"))
    print(
        format_table(
            ("zero share of activations", "pattern visible"),
            [(f"{z:.0%}", f"{100 * v:.1f}%") for z, v in report],
        )
    )
    visibilities = [v for _, v in report]
    # Visibility decays monotonically as zeros take over — exactly the
    # suppression the paper avoids with all-ones operands.
    assert visibilities[0] == 1.0
    assert all(a >= b for a, b in zip(visibilities, visibilities[1:]))
    assert visibilities[-1] < 0.1
