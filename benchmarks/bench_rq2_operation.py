"""RQ2 — operation types (Section IV-A2).

Exhaustive campaigns contrasting GEMM with the paper's two convolution
kernels under WS. Reproduces: GEMM faults corrupt a column of the output
matrix; convolution faults corrupt an entire output *channel*, because the
im2col lowering maps output channel k onto GEMM column k.
"""

from repro.analysis import summary_table
from repro.core.campaign import Campaign, ConvWorkload, GemmWorkload
from repro.core.classifier import PatternClass
from repro.systolic import Dataflow, MeshConfig

from _common import banner, run_once

MESH = MeshConfig.paper()
WS = Dataflow.WEIGHT_STATIONARY


def run_rq2():
    return {
        "GEMM 16x16": Campaign(MESH, GemmWorkload.square(16, WS)).run(),
        "Conv 3x3x3x3": Campaign(
            MESH, ConvWorkload.paper_kernel(16, (3, 3, 3, 3))
        ).run(),
        "Conv 3x3x3x8": Campaign(
            MESH, ConvWorkload.paper_kernel(16, (3, 3, 3, 8))
        ).run(),
    }


def test_rq2_operation_campaigns(benchmark):
    campaigns = run_once(benchmark, run_rq2)
    print(banner("RQ2 — GEMM vs convolution, WS, exhaustive campaigns"))
    print(summary_table(campaigns))

    gemm = campaigns["GEMM 16x16"]
    conv3 = campaigns["Conv 3x3x3x3"]
    conv8 = campaigns["Conv 3x3x3x8"]

    assert gemm.dominant_class() is PatternClass.SINGLE_COLUMN
    assert conv3.dominant_class() is PatternClass.SINGLE_CHANNEL
    assert conv8.dominant_class() is PatternClass.SINGLE_CHANNEL
    for result in campaigns.values():
        assert result.is_single_class()

    # The channel <-> column correspondence (Section II-B): a conv fault's
    # mean corrupted-cell count equals one full channel (N*P*Q cells).
    geometry = conv3.geometry
    channel_cells = geometry.n * geometry.p * geometry.q
    faults_hitting_channels = [
        e for e in conv3.experiments
        if e.pattern_class is PatternClass.SINGLE_CHANNEL
    ]
    assert all(
        e.num_corrupted == channel_cells for e in faults_hitting_channels
    )
    # K=3 kernels use only 3 of 16 mesh columns: faults in the other 13
    # columns are masked by the mapping.
    census = conv3.census()
    assert census[PatternClass.MASKED] == 13 * 16
    assert census[PatternClass.SINGLE_CHANNEL] == 3 * 16
    # K=8 halves the masked share.
    assert conv8.census()[PatternClass.MASKED] == 8 * 16
