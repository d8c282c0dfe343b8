#!/usr/bin/env python3
"""LLTFI-style integration: derive fault patterns on the fly.

The paper's proposed use-case (Section IV Discussion): application-level
fault injectors should "derive fault patterns on the fly for various
systolic array sizes and data mapping schemes, as opposed to hard-coding
the abstract fault pattern classes or ignoring them."

This example plays the role of such a tool. For a convolution layer's
shape it derives the exact corruption pattern of a random stuck-at fault
for three hardware targets — including a 128x128 array, ten times larger
than what the paper's FPGA could synthesise — and injects it into the
layer's output, all without any hardware simulation.

Run:  python examples/lltfi_integration.py
"""

import numpy as np

from repro.appfi import AppLevelInjector, HardwareModel
from repro.core.reports import format_table
from repro.faults import FaultSite
from repro.ops import ConvGeometry
from repro.systolic import Dataflow, MeshConfig


def main() -> None:
    # A ResNet-style layer: 64 output channels over a 56x56 feature map.
    geometry = ConvGeometry(n=1, c=64, h=56, w=56, k=64, r=3, s=3, padding=1)
    print(
        f"layer: conv {geometry.r}x{geometry.s}x{geometry.c}x{geometry.k} "
        f"on {geometry.h}x{geometry.w} input "
        f"(lowered GEMM: {geometry.gemm_m}x{geometry.gemm_k}x{geometry.gemm_n})\n"
    )

    rng = np.random.default_rng(3)
    rows = []
    for mesh_size in (16, 32, 128):
        for dataflow in Dataflow:
            model = HardwareModel(
                MeshConfig(mesh_size, mesh_size), dataflow
            )
            site = model.random_site(rng)
            derived = model.derive_conv(geometry, site)
            rows.append(
                (
                    f"{mesh_size}x{mesh_size}",
                    str(dataflow),
                    str(site),
                    str(derived.pattern_class),
                    str(derived.prediction.channels) or "-",
                )
            )
    print(format_table(
        ("array", "dataflow", "fault site", "derived class", "channels hit"),
        rows,
    ))

    # Now actually corrupt a layer output, TensorFI-style.
    print("\ninjecting into the layer output (16x16 WS array) ...")
    injector = AppLevelInjector(
        MeshConfig(16, 16), Dataflow.WEIGHT_STATIONARY, bit=24, seed=1
    )
    golden = np.zeros((geometry.n, geometry.k, geometry.p, geometry.q),
                      dtype=np.int64)
    corrupted = injector.inject_conv(golden, geometry,
                                     site=FaultSite(2, 11, "sum", 24))
    record = injector.last
    changed = sorted(set(np.where((golden != corrupted).any(axis=(0, 2, 3)))[0]))
    print(f"pattern class     : {record.pattern.pattern_class}")
    print(f"corrupted channels: {changed}")
    print(f"corrupted cells   : {record.cells_corrupted} "
          f"of {golden.size} ({record.cells_corrupted / golden.size:.2%})")


if __name__ == "__main__":
    main()
