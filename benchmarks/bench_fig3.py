"""Experiments F3a-F3g — regenerating every subfigure of Fig. 3.

Each bench runs one subfigure's configuration, injects the paper's
single stuck-at fault into a representative MAC, renders the fault map in
ASCII (tile boundaries drawn like the paper's coloured tiles), and asserts
the pattern class the paper reports.

Scaling note (documented in DESIGN.md §2): subfigures (e)-(g) are executed
both at the paper's mesh size — where the general rule says kernels with
K <= 16 corrupt a single channel — and on a scaled-down 4x4 mesh where the
paper's own 3x3x3x8 kernel exercises channel tiling (K=8 > 4), reproducing
the multi-channel shape the paper shows for Fig. 3f/3g.
"""

import pytest

from repro.analysis import render_conv_pattern, render_gemm_pattern
from repro.core.campaign import Campaign, ConvWorkload, GemmWorkload
from repro.core.classifier import PatternClass
from repro.systolic import Dataflow, MeshConfig

from _common import banner, run_once

MESH16 = MeshConfig.paper()
MESH4 = MeshConfig(rows=4, cols=4)
OS = Dataflow.OUTPUT_STATIONARY
WS = Dataflow.WEIGHT_STATIONARY

#: Representative fault location (mid-mesh, as in the paper's figures).
SITE16 = [(5, 9)]
SITE4 = [(1, 2)]


def _run(mesh, workload, sites):
    return Campaign(mesh, workload, sites=sites).run()


def _show_gemm(tag, result):
    experiment = result.experiments[0]
    print(banner(f"Fig. 3{tag} — {result.workload.describe()}"))
    print(f"fault: {experiment.site}  ->  class: {experiment.pattern_class}")
    print(render_gemm_pattern(experiment.pattern))
    return experiment


def _show_conv(tag, result):
    experiment = result.experiments[0]
    print(banner(f"Fig. 3{tag} — {result.workload.describe()}"))
    print(f"fault: {experiment.site}  ->  class: {experiment.pattern_class}")
    print(render_conv_pattern(experiment.pattern))
    return experiment


def test_fig3a_gemm_ws_16(benchmark):
    result = run_once(benchmark, _run, MESH16, GemmWorkload.square(16, WS), SITE16)
    experiment = _show_gemm("a", result)
    assert experiment.pattern_class is PatternClass.SINGLE_COLUMN
    assert experiment.num_corrupted == 16


def test_fig3b_gemm_os_16(benchmark):
    result = run_once(benchmark, _run, MESH16, GemmWorkload.square(16, OS), SITE16)
    experiment = _show_gemm("b", result)
    assert experiment.pattern_class is PatternClass.SINGLE_ELEMENT
    assert experiment.num_corrupted == 1


def test_fig3c_gemm_ws_112(benchmark):
    result = run_once(
        benchmark, _run, MESH16, GemmWorkload.square(112, WS), SITE16
    )
    experiment = result.experiments[0]
    print(banner(f"Fig. 3c — {result.workload.describe()}"))
    print(f"fault: {experiment.site}  ->  class: {experiment.pattern_class}")
    print("(112x112 map too large to print; corrupted columns:",
          experiment.pattern.corrupted_columns(), ")")
    assert experiment.pattern_class is PatternClass.SINGLE_COLUMN_MULTI_TILE
    # Same physical column in all 7 column tiles, full height each.
    assert experiment.pattern.corrupted_columns() == tuple(
        9 + 16 * t for t in range(7)
    )
    assert experiment.num_corrupted == 7 * 112


def test_fig3d_gemm_os_112(benchmark):
    result = run_once(
        benchmark, _run, MESH16, GemmWorkload.square(112, OS), SITE16
    )
    experiment = result.experiments[0]
    print(banner(f"Fig. 3d — {result.workload.describe()}"))
    print(f"fault: {experiment.site}  ->  class: {experiment.pattern_class}")
    print("corrupted cells (stride-16 grid):",
          experiment.pattern.corrupted_cells()[:7], "...")
    assert experiment.pattern_class is PatternClass.SINGLE_ELEMENT_MULTI_TILE
    assert experiment.num_corrupted == 49  # one per 7x7 output tile


def test_fig3e_conv_single_channel(benchmark):
    """(Conv, WS, 16x16, 3x3x3x3): one corrupted output channel."""
    workload = ConvWorkload.paper_kernel(16, (3, 3, 3, 3))
    result = run_once(benchmark, _run, MESH16, workload, [(5, 1)])
    experiment = result.experiments[0]
    print(banner(f"Fig. 3e — {result.workload.describe()}"))
    print(f"fault: {experiment.site}  ->  class: {experiment.pattern_class}")
    print("corrupted channels:", experiment.pattern.corrupted_channels())
    assert experiment.pattern_class is PatternClass.SINGLE_CHANNEL
    assert experiment.pattern.corrupted_channels() == (1,)
    assert experiment.pattern.channel_mask(1).all()


def test_fig3f_conv_multi_channel_scaled_mesh(benchmark):
    """(Conv, WS, 16x16, 3x3x3x8) on a 4x4 mesh: K=8 > 4 tiles the channel
    dimension, so one fault corrupts channels {c, c+4} — the paper's
    multi-channel pattern, with the mechanism made explicit."""
    workload = ConvWorkload.paper_kernel(16, (3, 3, 3, 8))
    result = run_once(benchmark, _run, MESH4, workload, SITE4)
    experiment = result.experiments[0]
    print(banner(f"Fig. 3f — {result.workload.describe()} on 4x4 mesh"))
    print(f"fault: {experiment.site}  ->  class: {experiment.pattern_class}")
    print("corrupted channels:", experiment.pattern.corrupted_channels())
    assert experiment.pattern_class is PatternClass.MULTI_CHANNEL
    assert experiment.pattern.corrupted_channels() == (2, 6)


def test_fig3g_conv_multi_channel_large_input(benchmark):
    """(Conv, WS, 112x112, 3x3x3x8) on a 4x4 mesh: identical pattern class
    to Fig. 3f — the paper's 'identical fault patterns in 3f and 3g'."""
    workload = ConvWorkload.paper_kernel(112, (3, 3, 3, 8))
    result = run_once(benchmark, _run, MESH4, workload, SITE4)
    experiment = result.experiments[0]
    print(banner(f"Fig. 3g — {result.workload.describe()} on 4x4 mesh"))
    print(f"fault: {experiment.site}  ->  class: {experiment.pattern_class}")
    print("corrupted channels:", experiment.pattern.corrupted_channels())
    assert experiment.pattern_class is PatternClass.MULTI_CHANNEL
    assert experiment.pattern.corrupted_channels() == (2, 6)


def test_fig3fg_general_rule_at_paper_mesh(benchmark):
    """The same mechanism at the paper's 16x16 mesh: a K=24 kernel tiles
    the channel dimension (24 > 16) and yields multi-channel corruption,
    while the paper's K=8 kernel yields single-channel (K <= 16)."""
    def run_both():
        # Mesh column 3 maps into both channel tiles of the K=24 kernel
        # (channels 3 and 16 + 3 = 19).
        small_k = Campaign(
            MESH16, ConvWorkload.paper_kernel(16, (3, 3, 3, 8)), sites=[(5, 3)]
        ).run()
        large_k = Campaign(
            MESH16, ConvWorkload.paper_kernel(16, (3, 3, 3, 24)), sites=[(5, 3)]
        ).run()
        return small_k, large_k

    small_k, large_k = run_once(benchmark, run_both)
    print(banner("Fig. 3f/3g mechanism at 16x16: channel tiling rule"))
    for name, result in (("K=8", small_k), ("K=24", large_k)):
        experiment = result.experiments[0]
        print(f"{name}: class={experiment.pattern_class} "
              f"channels={experiment.pattern.corrupted_channels()}")
    assert (
        small_k.experiments[0].pattern_class is PatternClass.SINGLE_CHANNEL
    )
    assert large_k.experiments[0].pattern_class is PatternClass.MULTI_CHANNEL
    assert large_k.experiments[0].pattern.corrupted_channels() == (3, 19)
