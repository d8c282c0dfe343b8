"""Cycle-level, bit-accurate systolic-array substrate.

This package is the RTL-equivalent stand-in for the paper's Gemmini/FPGA
platform: a synchronous mesh of MAC units with named intermediate datapath
signals, two dataflow mapping schemes (OS/WS), diagonal operand skewing and
a fault-injection overlay.

Public API
----------
:class:`~repro.systolic.array.MeshConfig`
    Hardware configuration (size, datapath types).
:class:`~repro.systolic.simulator.CycleSimulator`
    Cycle-accurate single-tile matmul executor.
:class:`~repro.systolic.functional.FunctionalSimulator`
    Vectorised engine with identical faulty semantics (cross-validated).
:class:`~repro.systolic.dataflow.Dataflow`
    The OS/WS dataflow enum.
"""

from repro.systolic.array import MeshConfig, SystolicArray
from repro.systolic.dataflow import (
    Dataflow,
    OutputStationarySchedule,
    WeightStationarySchedule,
)
from repro.systolic.functional import FunctionalSimulator
from repro.systolic.mac import MacUnit
from repro.systolic.pe import ProcessingElement
from repro.systolic.simulator import CycleSimulator

__all__ = [
    "MeshConfig",
    "SystolicArray",
    "Dataflow",
    "OutputStationarySchedule",
    "WeightStationarySchedule",
    "CycleSimulator",
    "FunctionalSimulator",
    "MacUnit",
    "ProcessingElement",
]
