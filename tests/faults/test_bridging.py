"""Unit tests for the bridging (wired-AND/OR) fault model."""

import numpy as np
import pytest

from repro.datatypes import INT32
from repro.faults import BridgingFault, FaultInjector, FaultSet, FaultSite
from repro.systolic import CycleSimulator, Dataflow, FunctionalSimulator, MeshConfig

SITE = FaultSite(1, 2, "sum", 4)


class TestSemantics:
    def test_wired_and(self):
        fault = BridgingFault(site=SITE, other_bit=7, mode="and")
        # bit4=1, bit7=0 -> both become 0.
        assert fault.apply(16, INT32, 0) == 0
        # both set: unchanged.
        assert fault.apply(16 + 128, INT32, 0) == 16 + 128
        # neither set: unchanged.
        assert fault.apply(3, INT32, 0) == 3

    def test_wired_or(self):
        fault = BridgingFault(site=SITE, other_bit=7, mode="or")
        # bit4=1, bit7=0 -> both become 1.
        assert fault.apply(16, INT32, 0) == 16 + 128
        assert fault.apply(128, INT32, 0) == 16 + 128
        assert fault.apply(0, INT32, 0) == 0

    def test_permanent(self):
        fault = BridgingFault(site=SITE, other_bit=7)
        assert all(fault.is_active(cycle) for cycle in (0, 1, 10**6))

    def test_validation(self):
        with pytest.raises(ValueError):
            BridgingFault(site=SITE, other_bit=4)  # same wire
        with pytest.raises(ValueError):
            BridgingFault(site=SITE, other_bit=32)  # out of bus
        with pytest.raises(ValueError):
            BridgingFault(site=SITE, other_bit=7, mode="xor")

    def test_describe(self):
        text = BridgingFault(site=SITE, other_bit=7, mode="or").describe()
        assert "wired-OR" in text and "bits 4 and 7" in text


class TestInSimulation:
    @pytest.mark.parametrize("mode", ["and", "or"])
    def test_engines_agree(self, mesh4, rng, mode):
        a = rng.integers(-128, 128, size=(4, 4))
        b = rng.integers(-128, 128, size=(4, 4))
        fault = BridgingFault(
            site=FaultSite(1, 1, "sum", 3), other_bit=9, mode=mode
        )
        injector = FaultInjector(FaultSet.of(fault))
        for dataflow in Dataflow:
            cycle = CycleSimulator(mesh4, injector).matmul(a, b, dataflow)
            fast = FunctionalSimulator(mesh4, injector).matmul(a, b, dataflow)
            assert np.array_equal(cycle, fast)

    def test_bridge_stays_within_stuck_at_support(self, mesh4):
        """The paper's McCluskey-citation claim: non-stuck-at defects still
        manifest within the stuck-at-derived pattern geometry. (Data
        masking may shrink the observation inside the support — e.g. a
        column reduced to one cell — so containment, not class equality,
        is the right statement.)"""
        from repro.core.fault_patterns import extract_pattern
        from repro.core.predictor import predict_pattern
        from repro.ops.gemm import TiledGemm
        from repro.ops.reference import reference_gemm

        rng = np.random.default_rng(5)
        a = rng.integers(-128, 128, size=(4, 4))
        b = rng.integers(-128, 128, size=(4, 4))
        golden = reference_gemm(a, b)
        for dataflow in (
            Dataflow.WEIGHT_STATIONARY,
            Dataflow.OUTPUT_STATIONARY,
        ):
            for row in range(4):
                for col in range(4):
                    site = FaultSite(row, col, "sum", 5)
                    fault = BridgingFault(site=site, other_bit=17, mode="or")
                    injector = FaultInjector(FaultSet.of(fault))
                    result = TiledGemm(FunctionalSimulator(mesh4, injector))(
                        a, b, dataflow
                    )
                    pattern = extract_pattern(
                        golden, result.output, plan=result.plan
                    )
                    support = predict_pattern(site, result.plan).support
                    # Every corrupted cell lies in the stuck-at support.
                    assert np.all(support | ~pattern.mask), (dataflow, row, col)
