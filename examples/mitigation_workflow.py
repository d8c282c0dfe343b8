#!/usr/bin/env python3
"""End-to-end mitigation workflow: detect -> locate -> work around.

A maintenance story built entirely on the paper's determinism result:

1. a DNN accelerator develops a stuck-at fault in the field; inference
   accuracy craters;
2. BIST test vectors expose the fault and the inverse predictor locates
   the faulty MAC exactly;
3. the scheduler off-lines the faulty column (MOZART-style) and reruns
   inference — accuracy restored, at a measured tile-overhead cost;
4. alternatively, ABFT-protected GEMMs detect/correct per-operation.

Run:  python examples/mitigation_workflow.py
"""

import numpy as np

from repro.faults import FaultInjector, FaultSite
from repro.faults.injector import NO_FAULTS
from repro.mitigation import AbftGemm, OffliningGemm, run_bist
from repro.nn import build_dense_classifier, make_digits
from repro.nn.backends import SystolicBackend
from repro.ops import reference_gemm
from repro.systolic import Dataflow, FunctionalSimulator, MeshConfig

MESH = MeshConfig.paper()
WS = Dataflow.WEIGHT_STATIONARY

#: The field failure: a stuck-at-1 on bit 28 of MAC(3, 6)'s adder output.
FAULT_SITE = FaultSite(3, 6, "sum", 28)


class OffliningBackend(SystolicBackend):
    """An inference backend that routes GEMMs around off-lined columns."""

    def __init__(self, mesh, injector, faulty_macs):
        super().__init__(mesh, injector, WS)
        self._offlining = OffliningGemm(self._engine, WS, faulty_macs)

    def gemm(self, a, b):
        return self._offlining(a, b).output


def main() -> None:
    x, y = make_digits(300, noise=0.03, seed=7)
    injector = FaultInjector.single_stuck_at(FAULT_SITE, 1)

    model = build_dense_classifier()
    model.set_backend(SystolicBackend(MESH))
    healthy = model.evaluate(x, y)
    print(f"1. healthy accelerator        : {100 * healthy:.1f}% accuracy")

    model.set_backend(SystolicBackend(MESH, injector, WS))
    broken = model.evaluate(x, y)
    print(f"   after the field fault      : {100 * broken:.1f}% accuracy\n")

    print("2. running BIST ...")
    report = run_bist(MESH, injector)
    print(f"   {report.describe()}")
    assert report.faulty_macs == ((FAULT_SITE.row, FAULT_SITE.col),)

    print("\n3. off-lining the faulty column and re-running inference ...")
    model.set_backend(OffliningBackend(MESH, injector, report.faulty_macs))
    restored = model.evaluate(x, y)
    sample = OffliningGemm(
        FunctionalSimulator(MESH, injector), WS, report.faulty_macs
    )(
        np.ones((64, 16), dtype=np.int64), np.ones((16, 16), dtype=np.int64)
    )
    print(f"   restored accuracy          : {100 * restored:.1f}%")
    print(f"   tile overhead              : {sample.overhead_ratio:.2f}x")

    print("\n4. per-operation ABFT on the faulty mesh (OS dataflow):")
    rng = np.random.default_rng(0)
    a = rng.integers(-128, 128, size=(12, 12))
    b = rng.integers(-128, 128, size=(12, 12))
    abft = AbftGemm(
        FunctionalSimulator(MESH, injector), Dataflow.OUTPUT_STATIONARY
    )(a, b)
    ok = np.array_equal(abft.output, reference_gemm(a, b))
    print(f"   verdict: {abft.verdict} at {abft.correction_location}; "
          f"output golden: {ok}")


if __name__ == "__main__":
    main()
