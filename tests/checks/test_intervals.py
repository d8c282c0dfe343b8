"""Bit-width interval verifier: drive proofs, widening bugs, mask closure."""

from repro.checks.engine import run_project_checks
from repro.checks.graph import ProjectGraph
from repro.checks.intervals import (
    INTERVAL_RULES,
    Interval,
    TOP,
    verify_intervals,
)
from repro.datatypes import INT8, INT32

REGISTRY = """
    from repro.datatypes import INT8, INT32

    SIGNAL_A_REG = "a_reg"
    SIGNAL_B_REG = "b_reg"
    SIGNAL_PRODUCT = "product"
    SIGNAL_SUM = "sum"

    _SIGNAL_DTYPES = {
        SIGNAL_A_REG: INT8,
        SIGNAL_B_REG: INT8,
        SIGNAL_PRODUCT: INT32,
        SIGNAL_SUM: INT32,
    }
    """

CLEAN_MAC = """
    from repro.datatypes import INT8, INT32
    from repro.faults.sites import (
        SIGNAL_A_REG,
        SIGNAL_B_REG,
        SIGNAL_PRODUCT,
        SIGNAL_SUM,
    )

    class MacUnit:
        def __init__(self, input_dtype=INT8, acc_dtype=INT32):
            self.input_dtype = input_dtype
            self.acc_dtype = acc_dtype

        def _drive(self, signal, value, cycle):
            return value

        def compute(self, a, b, acc, cycle):
            av = self.input_dtype.wrap(a)
            bv = self.input_dtype.wrap(b)
            av = self._drive(SIGNAL_A_REG, av, cycle)
            bv = self._drive(SIGNAL_B_REG, bv, cycle)
            product = self.acc_dtype.wrap(av * bv)
            product = self._drive(SIGNAL_PRODUCT, product, cycle)
            total = self.acc_dtype.wrap(acc + product)
            return self._drive(SIGNAL_SUM, total, cycle)
    """


class TestIntervalDomain:
    def test_product_corners(self):
        int8 = Interval(-128, 127)
        product = int8 * int8
        assert product == Interval(-16256, 16384)
        assert product.within(INT32)
        assert not product.within(INT8)

    def test_top_absorbs(self):
        assert (TOP + Interval(0, 1)).is_top
        assert Interval(1, 2).join(TOP).is_top
        assert not TOP.within(INT32)

    def test_join_is_hull(self):
        assert Interval(-5, 0).join(Interval(3, 9)) == Interval(-5, 9)


class TestDriveProofs:
    def _proofs(self, write_module, tmp_path, mac_source=CLEAN_MAC):
        write_module("repro.faults.sites", REGISTRY)
        write_module("repro.systolic.mac", mac_source)
        graph = ProjectGraph.build([tmp_path])
        return verify_intervals(graph)

    def test_all_four_signals_discharged(self, write_module, tmp_path):
        findings, proofs = self._proofs(write_module, tmp_path)
        assert findings == []
        by_signal = {p.signal: p for p in proofs}
        assert set(by_signal) == {"a_reg", "b_reg", "product", "sum"}
        assert by_signal["a_reg"].dtype_name == "INT8"
        assert by_signal["a_reg"].interval == Interval(-128, 127)
        # The paper's INT8xINT8 containment fact, derived statically.
        assert by_signal["product"].interval == Interval(-16256, 16384)
        assert by_signal["sum"].dtype_name == "INT32"

    def test_unwrapped_operand_widening_bug_fires(
        self, write_module, tmp_path
    ):
        # Synthetic bug: the product is computed from the raw operands,
        # whose interval is unbounded, so the INT32 wrap may lose bits.
        buggy = CLEAN_MAC.replace(
            "product = self.acc_dtype.wrap(av * bv)",
            "product = self.acc_dtype.wrap(a * b)",
        )
        findings, proofs = self._proofs(write_module, tmp_path, buggy)
        assert any(
            f.rule == "interval-escape" and "lossless" in f.message
            for f in findings
        )

    def test_overdriven_signal_fires(self, write_module, tmp_path):
        # INT32-wrapped value driven onto an INT8-declared signal.
        buggy = CLEAN_MAC.replace(
            "av = self._drive(SIGNAL_A_REG, av, cycle)",
            "av = self._drive(SIGNAL_A_REG, self.acc_dtype.wrap(a), cycle)",
        )
        findings, _ = self._proofs(write_module, tmp_path, buggy)
        assert any(
            f.rule == "interval-escape" and "escapes its declared width" in f.message
            for f in findings
        )

    def test_suppression_silences_escape(self, write_module, tmp_path):
        buggy = CLEAN_MAC.replace(
            "product = self.acc_dtype.wrap(av * bv)",
            "product = self.acc_dtype.wrap(a * b)"
            "  # repro: ignore[interval-escape]",
        )
        write_module("repro.faults.sites", REGISTRY)
        write_module("repro.systolic.mac", buggy)
        findings = run_project_checks([tmp_path], rules=INTERVAL_RULES)
        assert [f for f in findings if f.rule == "interval-escape"] == []


class TestMaskClosure:
    def _findings(self, write_module, tmp_path, body):
        write_module(
            "repro.faults.model_fixture",
            f"""
            class FaultModel:
                def __init__(self, bit):
                    self.bit = bit

                def apply(self, value, dtype, cycle):
            {body}
            """,
        )
        findings = run_project_checks([tmp_path], rules=INTERVAL_RULES)
        return [f for f in findings if f.rule == "mask-closure"]

    def test_widening_return_fires(self, write_module, tmp_path):
        findings = self._findings(
            write_module, tmp_path, "        return value + 1"
        )
        assert len(findings) == 1

    def test_range_closed_return_is_clean(self, write_module, tmp_path):
        findings = self._findings(
            write_module,
            tmp_path,
            "        return dtype.force_bit(value, self.bit, True)",
        )
        assert findings == []

    def test_passthrough_and_ifexp_are_clean(self, write_module, tmp_path):
        findings = self._findings(
            write_module,
            tmp_path,
            "        masked = dtype.flip_bit(value, self.bit)\n"
            "        return masked if cycle else value",
        )
        assert findings == []
