#!/usr/bin/env python3
"""Fault-pattern atlas: every class of the paper's taxonomy, rendered.

Reproduces the full Fig. 3 storyline as an ASCII atlas: for each of the
six pattern classes (plus MASKED), the configuration that produces it, the
fault that was injected, and the rendered fault map with tile boundaries.

Run:  python examples/fault_pattern_atlas.py
"""

from repro.analysis import render_conv_pattern, render_gemm_pattern
from repro.core.campaign import Campaign, ConvWorkload, GemmWorkload
from repro.systolic import Dataflow, MeshConfig

MESH16 = MeshConfig.paper()
MESH4 = MeshConfig(rows=4, cols=4)
OS = Dataflow.OUTPUT_STATIONARY
WS = Dataflow.WEIGHT_STATIONARY

#: (title, mesh, workload, fault site, conv?) — one entry per taxonomy class.
ATLAS = [
    ("single-element (Fig. 3b): GEMM 16x16, OS",
     MESH16, GemmWorkload.square(16, OS), (5, 9), False),
    ("single-element multi-tile (Fig. 3d): GEMM 32x32, OS",
     MESH16, GemmWorkload.square(32, OS), (5, 9), False),
    ("single-column (Fig. 3a): GEMM 16x16, WS",
     MESH16, GemmWorkload.square(16, WS), (5, 9), False),
    ("single-column multi-tile (Fig. 3c): GEMM 32x32, WS",
     MESH16, GemmWorkload.square(32, WS), (5, 9), False),
    ("single-channel (Fig. 3e): Conv 3x3x3x3, WS, input 8x8",
     MESH16, ConvWorkload.paper_kernel(8, (3, 3, 3, 3)), (5, 1), True),
    ("multi-channel (Fig. 3f/3g): Conv 3x3x3x8, WS on a 4x4 mesh",
     MESH4, ConvWorkload.paper_kernel(8, (3, 3, 3, 8)), (1, 2), True),
    ("masked: Conv 3x3x3x3 fault in an unused mesh column",
     MESH16, ConvWorkload.paper_kernel(8, (3, 3, 3, 3)), (5, 12), True),
]


def main() -> None:
    for title, mesh, workload, site, is_conv in ATLAS:
        result = Campaign(mesh, workload, sites=[site]).run()
        experiment = result.experiments[0]
        print("=" * 72)
        print(title)
        print(f"fault: {experiment.site}  ->  class: {experiment.pattern_class}")
        print("-" * 72)
        if experiment.num_corrupted == 0:
            print("(no output corruption — the fault is architecturally masked)")
        elif is_conv:
            print(render_conv_pattern(experiment.pattern))
        else:
            print(render_gemm_pattern(experiment.pattern))
        print()


if __name__ == "__main__":
    main()
