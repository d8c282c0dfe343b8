"""Experiment D1 — class census and the position-independence symmetry.

Section IV Discussion: "For each configuration and all of its FI
experiments (one for each MAC unit), we found the same fault pattern class,
regardless of the MAC unit into which we injected the fault."

This bench (a) verifies the single-class property for every Table I
configuration, and (b) quantifies the experiment-count reduction the
symmetry enables: a diagonal sweep reaches the same census conclusion with
16 experiments instead of 256 — the paper's suggestion for reducing
application-level FI campaigns.
"""

from repro.core.campaign import Campaign, ConvWorkload, GemmWorkload
from repro.core.reports import format_table
from repro.core.sampling import diagonal_sites
from repro.systolic import Dataflow, MeshConfig

from _common import banner, run_once

MESH = MeshConfig.paper()
OS = Dataflow.OUTPUT_STATIONARY
WS = Dataflow.WEIGHT_STATIONARY

CONFIGS = {
    "GEMM 16 OS": GemmWorkload.square(16, OS),
    "GEMM 16 WS": GemmWorkload.square(16, WS),
    "Conv 3x3x3x3": ConvWorkload.paper_kernel(16, (3, 3, 3, 3)),
    "Conv 3x3x3x8": ConvWorkload.paper_kernel(16, (3, 3, 3, 8)),
}


def run_census():
    exhaustive = {
        name: Campaign(MESH, workload).run()
        for name, workload in CONFIGS.items()
    }
    diagonal = {
        name: Campaign(MESH, workload, sites=diagonal_sites(MESH)).run()
        for name, workload in CONFIGS.items()
    }
    return exhaustive, diagonal


def test_class_census_and_symmetry(benchmark):
    exhaustive, diagonal = run_once(benchmark, run_census)
    print(banner("D1 — pattern-class census: exhaustive (256) vs diagonal (16)"))
    rows = []
    for name in CONFIGS:
        full = exhaustive[name]
        diag = diagonal[name]
        rows.append(
            (
                name,
                str(full.dominant_class()),
                "yes" if full.is_single_class() else "NO",
                str(diag.dominant_class()),
                len(full.experiments),
                len(diag.experiments),
            )
        )
    print(
        format_table(
            (
                "configuration",
                "class (exhaustive)",
                "single-class",
                "class (diagonal)",
                "n_full",
                "n_diag",
            ),
            rows,
        )
    )

    for name in CONFIGS:
        # (a) the paper's single-class claim on the exhaustive sweep;
        assert exhaustive[name].is_single_class(), name
        # (b) the 16-experiment diagonal sweep reaches the same verdict.
        assert (
            diagonal[name].dominant_class()
            is exhaustive[name].dominant_class()
        ), name
    reduction = 256 / 16
    print(f"\nsymmetry-enabled experiment reduction: {reduction:.0f}x")
    assert reduction == 16.0
