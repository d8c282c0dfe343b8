"""RQ3 — operation size and the tiling effect (Section IV-A3).

Contrasts mesh-sized (16x16) operands with larger (112x112) ones for both
dataflows, plus the convolution input-size contrast. Reproduces: when the
operand exceeds the mesh, the same fault re-appears across every output
tile — single-element/column becomes single-element/column *multi-tile* —
because the same faulty MAC computes every tile.

The 112x112 campaigns run exhaustively (256 faults each) on the fast
engine — the experiment that took the paper's FPGA setup hours per
configuration.
"""

import numpy as np

from repro.analysis import per_tile_counts, summary_table
from repro.core.campaign import Campaign, ConvWorkload, GemmWorkload
from repro.core.classifier import PatternClass
from repro.systolic import Dataflow, MeshConfig

from _common import banner, run_once

MESH = MeshConfig.paper()
OS = Dataflow.OUTPUT_STATIONARY
WS = Dataflow.WEIGHT_STATIONARY


def run_rq3_gemm():
    return {
        "GEMM 16 / WS": Campaign(MESH, GemmWorkload.square(16, WS)).run(),
        "GEMM 112 / WS": Campaign(MESH, GemmWorkload.square(112, WS)).run(),
        "GEMM 16 / OS": Campaign(MESH, GemmWorkload.square(16, OS)).run(),
        "GEMM 112 / OS": Campaign(MESH, GemmWorkload.square(112, OS)).run(),
    }


def test_rq3_gemm_size_campaigns(benchmark):
    campaigns = run_once(benchmark, run_rq3_gemm)
    print(banner("RQ3 — operand size (tiling effect), exhaustive campaigns"))
    print(summary_table(campaigns))

    assert campaigns["GEMM 16 / WS"].dominant_class() is (
        PatternClass.SINGLE_COLUMN
    )
    assert campaigns["GEMM 112 / WS"].dominant_class() is (
        PatternClass.SINGLE_COLUMN_MULTI_TILE
    )
    assert campaigns["GEMM 16 / OS"].dominant_class() is (
        PatternClass.SINGLE_ELEMENT
    )
    assert campaigns["GEMM 112 / OS"].dominant_class() is (
        PatternClass.SINGLE_ELEMENT_MULTI_TILE
    )
    for result in campaigns.values():
        assert result.is_single_class()

    # "The same fault appears across multiple tiles, irrespective of the
    # data mapping scheme": every output tile carries equal corruption.
    for name in ("GEMM 112 / WS", "GEMM 112 / OS"):
        pattern = campaigns[name].result_at(3, 7).pattern
        counts = per_tile_counts(pattern)
        assert counts.shape == (7, 7)
        assert len(np.unique(counts)) == 1, name


def test_rq3_conv_size_contrast(benchmark):
    def run_convs():
        small = Campaign(
            MESH, ConvWorkload.paper_kernel(16, (3, 3, 3, 8)), sites=[(5, 1)]
        ).run()
        large = Campaign(
            MESH, ConvWorkload.paper_kernel(112, (3, 3, 3, 8)), sites=[(5, 1)]
        ).run()
        return small, large

    small, large = run_once(benchmark, run_convs)
    print(banner("RQ3 — convolution input size 16 vs 112 (kernel 3x3x3x8)"))
    for name, result in (("input 16", small), ("input 112", large)):
        experiment = result.experiments[0]
        print(
            f"{name}: class={experiment.pattern_class} "
            f"channels={experiment.pattern.corrupted_channels()} "
            f"corrupted={experiment.num_corrupted}"
        )
    # The channel mapping is input-size independent (K=8 <= 16 columns):
    # both corrupt exactly channel 1, in full.
    for result in (small, large):
        experiment = result.experiments[0]
        assert experiment.pattern_class is PatternClass.SINGLE_CHANNEL
        assert experiment.pattern.corrupted_channels() == (1,)
        assert experiment.pattern.channel_mask(1).all()
    # But the larger input corrupts proportionally more cells (more NPQ
    # rows stream through the faulty column).
    assert large.experiments[0].num_corrupted > small.experiments[0].num_corrupted
