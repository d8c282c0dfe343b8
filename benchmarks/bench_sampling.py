"""Extension E6 — statistical sampling vs exhaustive campaigns.

The paper's Challenge 1 (state-space explosion) is solved by fixing
parameters; the FI literature's complementary tool is statistical
sampling with confidence bounds (Leveugle et al.). This bench validates
the machinery of :mod:`repro.core.statistics` against exhaustive ground
truth and shows the experiment-count savings it buys at TPU scale.
"""

from repro.core.campaign import Campaign, ConvWorkload, GemmWorkload
from repro.core.reports import format_table
from repro.core.sampling import random_sites
from repro.core.statistics import estimate_rate, required_sample_size
from repro.systolic import Dataflow, MeshConfig

from _common import banner, run_once

MESH = MeshConfig.paper()


def run_sampling_validation():
    configs = {
        "Conv 3x3x3x3 (SDC 18.75%)": ConvWorkload.paper_kernel(16, (3, 3, 3, 3)),
        "Conv 3x3x3x8 (SDC 50%)": ConvWorkload.paper_kernel(16, (3, 3, 3, 8)),
        "GEMM 8x8 on 16x16 (SDC 25%)": GemmWorkload(
            8, 8, 8, Dataflow.OUTPUT_STATIONARY
        ),
    }
    rows = []
    for name, workload in configs.items():
        exhaustive = Campaign(MESH, workload).run()
        truth = exhaustive.sdc_rate()
        sample_size = required_sample_size(
            MESH.num_macs, margin=0.12, confidence=0.95
        )
        sampled = Campaign(
            MESH, workload, sites=random_sites(MESH, sample_size, seed=8)
        ).run()
        estimate = estimate_rate(sampled.experiments, confidence=0.95)
        rows.append(
            (
                name,
                f"{100 * truth:.1f}%",
                f"{100 * estimate.rate:.1f}%",
                f"[{100 * estimate.low:.1f}%, {100 * estimate.high:.1f}%]",
                estimate.samples,
                estimate.contains(truth),
            )
        )
    return rows


def test_sampled_estimates_bracket_truth(benchmark):
    rows = run_once(benchmark, run_sampling_validation)
    print(banner("E6a — sampled SDC estimates vs exhaustive ground truth"))
    print(
        format_table(
            (
                "configuration",
                "true SDC",
                "estimate",
                "95% interval",
                "samples",
                "truth in interval",
            ),
            rows,
        )
    )
    for row in rows:
        assert row[-1], row[0]  # every interval brackets the truth


def test_sampling_savings_at_tpu_scale(benchmark):
    def compute_savings():
        rows = []
        for mesh_macs, label in (
            (16 * 16, "paper's 16x16"),
            (128 * 128, "TPUv3-tile 128x128"),
            (256 * 256, "TPUv1 256x256"),
        ):
            population = mesh_macs * 32 * 2  # bits x polarities
            needed = required_sample_size(population, margin=0.02)
            rows.append((label, population, needed, f"{population / needed:.0f}x"))
        return rows

    rows = run_once(benchmark, compute_savings)
    print(banner("E6b — experiments needed for a +-2% SDC estimate (95%)"))
    print(
        format_table(
            ("array", "exhaustive experiments", "sampled", "savings"),
            rows,
        )
    )
    # At TPUv1 scale the sampled campaign is three orders of magnitude
    # cheaper than exhaustive — the scalability story the paper's FPGA
    # setup could not offer.
    tpuv1 = rows[-1]
    assert tpuv1[1] / tpuv1[2] > 500
