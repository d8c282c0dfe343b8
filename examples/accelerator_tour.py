#!/usr/bin/env python3
"""Tour of the Gemmini-like accelerator stack (the paper's Fig. 2).

Runs a convolution end to end through the functional accelerator model —
host memory, DMA, scratchpad, PRELOAD/COMPUTE command streams, accumulator
SRAM — first golden, then with a stuck-at fault in the mesh, and prints the
utilisation report plus a cycle-level waveform of the faulty MAC's datapath
signals.

Run:  python examples/accelerator_tour.py
"""

import numpy as np

from repro.core.reports import format_table
from repro.faults import FaultInjector, FaultSite
from repro.gemmini import GemminiAccelerator
from repro.systolic import CycleSimulator, Dataflow, MeshConfig
from repro.systolic.trace import TraceRecorder


def main() -> None:
    mesh = MeshConfig.paper()
    rng = np.random.default_rng(0)
    x = rng.integers(-64, 64, size=(1, 3, 12, 12))
    w = rng.integers(-8, 8, size=(8, 3, 3, 3))

    print("=== golden run through the full stack ===\n")
    accel = GemminiAccelerator(mesh)
    golden = accel.conv2d(x, w, padding=1)
    stats = accel.stats()
    print(format_table(
        ("counter", "value"),
        [
            ("commands executed", stats.controller.commands),
            ("tile computes", stats.controller.computes),
            ("mesh cycles", stats.mesh_cycles),
            ("DMA bytes in", stats.dma_bytes_in),
            ("DMA bytes out", stats.dma_bytes_out),
            ("scratchpad row writes", stats.scratchpad_writes),
            ("accumulator row writes", stats.accumulator_writes),
        ],
    ))

    print("\n=== same convolution with a stuck-at fault in MAC(2, 5) ===\n")
    injector = FaultInjector.single_stuck_at(FaultSite(2, 5, "sum", 22), 1)
    faulty_accel = GemminiAccelerator(mesh, injector=injector)
    faulty = faulty_accel.conv2d(x, w, padding=1)
    corrupted_channels = sorted(
        set(np.where((golden != faulty).any(axis=(0, 2, 3)))[0])
    )
    print(f"corrupted output channels: {corrupted_channels}")
    print(f"corrupted cells          : {int((golden != faulty).sum())} "
          f"of {golden.size}")

    print("\n=== waveform of the faulty MAC (first 14 cycles) ===\n")
    trace = TraceRecorder.for_mac(2, 5)
    sim = CycleSimulator(mesh, injector=injector, probe=trace)
    a = np.ones((4, 4), dtype=np.int64)
    sim.matmul(a, a, Dataflow.WEIGHT_STATIONARY)
    print(trace.render(max_cycles=14))
    print("\nNote bit 22 (value 4194304) forced high in every `sum` drive.")


if __name__ == "__main__":
    main()
