"""Experiment D3 — FI campaign runtime (Section IV Discussion).

The paper reports ~45 s per GEMM FI experiment and ~130 s per convolution
experiment on AWS F1 FPGAs — 49 hours for the full study. This bench
measures the same per-experiment costs on this repo's two engines and
prints the comparison. Absolute numbers are not expected to match (our
substrate is a simulator, not an FPGA); the *shape* — convolution costing
a few times more than GEMM, and the cycle-accurate engine costing orders
of magnitude more than the vectorised one — is the reproduced result.
"""

import time

from repro.core.campaign import Campaign, ConvWorkload, GemmWorkload
from repro.core.reports import format_table
from repro.systolic import Dataflow, MeshConfig

from _common import banner, run_once

MESH = MeshConfig.paper()
WS = Dataflow.WEIGHT_STATIONARY

#: Paper-reported per-experiment seconds on the FPGA platform.
PAPER_GEMM_SECONDS = 45.0
PAPER_CONV_SECONDS = 130.0
PAPER_TOTAL_HOURS = 49.0


def _per_experiment_seconds(workload, engine: str, sites) -> float:
    campaign = Campaign(MESH, workload, engine=engine, sites=sites)
    result = campaign.run()
    return result.wall_seconds / len(result.experiments)


def run_runtime_study():
    gemm = GemmWorkload.square(16, WS)
    conv = ConvWorkload.paper_kernel(16, (3, 3, 3, 8))
    few = [(0, 0), (7, 7), (15, 15)]
    return {
        ("GEMM", "functional"): _per_experiment_seconds(gemm, "functional", None),
        ("Conv", "functional"): _per_experiment_seconds(conv, "functional", None),
        ("GEMM", "cycle"): _per_experiment_seconds(gemm, "cycle", few),
        ("Conv", "cycle"): _per_experiment_seconds(conv, "cycle", few),
    }


def test_runtime_comparison(benchmark):
    ours = run_once(benchmark, run_runtime_study)
    print(banner("D3 — seconds per FI experiment: paper's FPGA vs this repo"))
    rows = [
        ("GEMM 16x16", f"{PAPER_GEMM_SECONDS:.0f}s",
         f"{ours[('GEMM', 'cycle')]:.3f}s",
         f"{ours[('GEMM', 'functional')] * 1000:.2f}ms"),
        ("Conv 3x3x3x8", f"{PAPER_CONV_SECONDS:.0f}s",
         f"{ours[('Conv', 'cycle')]:.3f}s",
         f"{ours[('Conv', 'functional')] * 1000:.2f}ms"),
    ]
    print(
        format_table(
            ("workload", "paper (FPGA)", "ours (cycle)", "ours (functional)"),
            rows,
        )
    )
    full_study_hours = (
        256 * (ours[("GEMM", "functional")] * 5 + ours[("Conv", "functional")] * 3)
        / 3600
    )
    print(
        f"\npaper's full study: {PAPER_TOTAL_HOURS:.0f} h on FPGA; "
        f"equivalent campaign volume here: {full_study_hours * 3600:.1f} s"
    )
    # Shape assertions: conv costs more than GEMM on both engines, and the
    # functional engine is far faster than the cycle-accurate one.
    assert ours[("Conv", "functional")] > ours[("GEMM", "functional")]
    assert ours[("Conv", "cycle")] > ours[("GEMM", "cycle")]
    assert ours[("GEMM", "cycle")] > 10 * ours[("GEMM", "functional")]


def test_simulated_hardware_cycle_cost(benchmark):
    """Mesh-cycle accounting: the hardware cost the wall-clock numbers
    abstract over, per workload."""

    def count_cycles():
        from repro.systolic import FunctionalSimulator
        from repro.ops import SystolicConv2d, TiledGemm

        engine = FunctionalSimulator(MESH)
        TiledGemm(engine)(
            *GemmWorkload.square(16, WS).operands(), WS
        )
        gemm_cycles = engine.cycles_elapsed

        engine2 = FunctionalSimulator(MESH)
        x, w = ConvWorkload.paper_kernel(16, (3, 3, 3, 8)).operands()
        SystolicConv2d(engine2, WS)(x, w)
        return gemm_cycles, engine2.cycles_elapsed

    gemm_cycles, conv_cycles = run_once(benchmark, count_cycles)
    print(banner("D3b — simulated mesh cycles per operation"))
    print(f"GEMM 16x16x16 : {gemm_cycles} cycles")
    print(f"Conv 3x3x3x8  : {conv_cycles} cycles")
    # Convolution is the costlier operation in hardware cycles too —
    # consistent with the paper's 45s vs 130s FPGA experiment times.
    assert conv_cycles > gemm_cycles
