"""Unit tests for checksum-based (ABFT) protection."""

import numpy as np
import pytest

from repro.datatypes import INT32, wrap_array
from repro.faults import FaultInjector, FaultSite
from repro.mitigation.abft import (
    AbftGemm,
    recombine_digit_planes,
    signed_digit_planes,
)
from repro.ops.reference import reference_gemm
from repro.systolic import Dataflow, FunctionalSimulator, MeshConfig

MESH = MeshConfig(16, 16)
OS = Dataflow.OUTPUT_STATIONARY
WS = Dataflow.WEIGHT_STATIONARY


class TestDigitPlanes:
    def test_digits_are_int8_legal(self, rng):
        values = rng.integers(-(2**31), 2**31, size=200)
        planes = signed_digit_planes(values)
        assert planes.min() >= -128 and planes.max() <= 127
        assert planes.shape == (4, 200)

    def test_roundtrip_mod_2_32(self, rng):
        values = rng.integers(-(2**31), 2**31, size=200)
        planes = signed_digit_planes(values)
        recombined = recombine_digit_planes(planes)
        assert np.array_equal(recombined, wrap_array(values, INT32))

    def test_known_values(self):
        planes = signed_digit_planes(np.array([0, 1, 255, 256, -1]))
        assert np.array_equal(
            recombine_digit_planes(planes), np.array([0, 1, 255, 256, -1])
        )

    def test_recombination_is_linear_under_matmul(self, rng):
        # (sum_j 2^{8j} d_j) @ B == sum_j 2^{8j} (d_j @ B)   (mod 2^32)
        values = rng.integers(-(2**20), 2**20, size=6)
        planes = signed_digit_planes(values)
        b = rng.integers(-128, 128, size=(6, 5))
        direct = wrap_array(values @ b, INT32)
        via_planes = recombine_digit_planes(planes @ b)
        assert np.array_equal(direct, via_planes)


class TestCleanExecution:
    def test_clean_run_verdict(self, rng):
        a = rng.integers(-128, 128, size=(12, 12))
        b = rng.integers(-128, 128, size=(12, 12))
        report = AbftGemm(FunctionalSimulator(MESH), OS)(a, b)
        assert report.verdict == "clean"
        assert not report.detected
        assert np.array_equal(report.output, reference_gemm(a, b))

    def test_operand_validation(self):
        abft = AbftGemm(FunctionalSimulator(MESH), OS)
        with pytest.raises(ValueError):
            abft(np.ones((2, 3)), np.ones((2, 2)))


class TestFaultyExecution:
    def _faulty(self, dataflow, site=(3, 5), bit=20):
        injector = FaultInjector.single_stuck_at(
            FaultSite(site[0], site[1], "sum", bit), 1
        )
        return AbftGemm(FunctionalSimulator(MESH, injector), dataflow)

    def test_os_single_element_corrected(self, rng):
        a = rng.integers(-128, 128, size=(12, 12))
        b = rng.integers(-128, 128, size=(12, 12))
        report = self._faulty(OS)(a, b)
        assert report.verdict == "corrected"
        assert report.correction_location == (3, 5)
        assert np.array_equal(report.output, reference_gemm(a, b))

    def test_ws_column_detected_not_corrected(self, rng):
        a = rng.integers(-128, 128, size=(12, 12))
        b = rng.integers(-128, 128, size=(12, 12))
        report = self._faulty(WS)(a, b)
        assert report.verdict == "detected"
        assert 5 in report.inconsistent_cols
        assert len(report.inconsistent_rows) > 1

    def test_low_bit_fault_also_handled(self, rng):
        a = rng.integers(-128, 128, size=(10, 10))
        b = rng.integers(-128, 128, size=(10, 10))
        report = self._faulty(OS, bit=0)(a, b)
        # Stuck-at-1 bit 0 may be masked on cells whose value is odd; when
        # it manifests, it must be corrected.
        if report.detected:
            assert report.corrected
            assert np.array_equal(report.output, reference_gemm(a, b))

    def test_fault_in_checksum_region_is_flagged_not_miscorrected(self, rng):
        # Data occupies rows 0-11; a fault in mesh row 12 can only hit the
        # digit-plane rows: ABFT must flag without corrupting live data.
        a = rng.integers(-128, 128, size=(12, 12))
        b = rng.integers(-128, 128, size=(12, 12))
        report = self._faulty(OS, site=(12, 5))(a, b)
        assert report.detected
        golden = reference_gemm(a, b)
        if report.corrected:
            assert np.array_equal(report.output, golden)
        else:
            # Data block itself was never corrupted.
            assert np.array_equal(report.output, golden)

    def test_tiled_abft_degrades_to_detection(self, rng):
        """When the augmented operands exceed one tile (RQ3's territory),
        the fault replicates across tiles, multiple rows and columns flag,
        and ABFT detects without claiming a correction."""
        small_mesh = MeshConfig(8, 8)
        a = rng.integers(-128, 128, size=(8, 8))  # augmented: 12x12 > 8x8
        b = rng.integers(-128, 128, size=(8, 8))
        injector = FaultInjector.single_stuck_at(FaultSite(0, 0, "sum", 20), 1)
        report = AbftGemm(FunctionalSimulator(small_mesh, injector), OS)(a, b)
        assert report.detected
        # The replicated fault also lands in the checksum planes, so the
        # row/col evidence no longer isolates one cell: no correction is
        # claimed (and none would be sound).
        assert not report.corrected

    def test_exhaustive_os_sweep_all_corrected(self, rng):
        """Every MAC in the data region yields a corrected run (ABFT's
        single-error guarantee, leveraging the OS pattern class)."""
        a = rng.integers(-128, 128, size=(8, 8))
        b = rng.integers(-128, 128, size=(8, 8))
        golden = reference_gemm(a, b)
        for row in range(8):
            for col in range(8):
                injector = FaultInjector.single_stuck_at(
                    FaultSite(row, col, "sum", 24), 1
                )
                report = AbftGemm(FunctionalSimulator(MESH, injector), OS)(a, b)
                assert np.array_equal(report.output, golden), (row, col)
