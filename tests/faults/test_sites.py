"""Unit tests for fault-site naming and enumeration."""

import pytest

from repro.datatypes import INT8, INT32
from repro.faults.sites import (
    MAC_SIGNALS,
    PAPER_FAULT_SIGNAL,
    SIGNAL_A_REG,
    SIGNAL_B_REG,
    SIGNAL_PRODUCT,
    SIGNAL_SUM,
    FaultSite,
    enumerate_mac_sites,
    enumerate_sites,
    signal_dtype,
)


class TestSignals:
    def test_paper_signal_is_adder_output(self):
        assert PAPER_FAULT_SIGNAL == SIGNAL_SUM

    def test_operand_signals_are_int8(self):
        assert signal_dtype(SIGNAL_A_REG) is INT8
        assert signal_dtype(SIGNAL_B_REG) is INT8

    def test_datapath_signals_are_int32(self):
        assert signal_dtype(SIGNAL_PRODUCT) is INT32
        assert signal_dtype(SIGNAL_SUM) is INT32

    def test_unknown_signal_rejected(self):
        with pytest.raises(KeyError):
            signal_dtype("not_a_signal")

    def test_all_signals_have_dtypes(self):
        for signal in MAC_SIGNALS:
            assert signal_dtype(signal).width in (8, 32)


class TestFaultSite:
    def test_defaults_to_paper_signal(self):
        site = FaultSite(row=1, col=2)
        assert site.signal == SIGNAL_SUM
        assert site.bit == 0

    def test_dtype_property(self):
        assert FaultSite(0, 0, SIGNAL_SUM, 31).dtype is INT32
        assert FaultSite(0, 0, SIGNAL_A_REG, 7).dtype is INT8

    def test_negative_coords_rejected(self):
        with pytest.raises(ValueError):
            FaultSite(row=-1, col=0)
        with pytest.raises(ValueError):
            FaultSite(row=0, col=-2)

    def test_invalid_signal_rejected(self):
        with pytest.raises(KeyError):
            FaultSite(row=0, col=0, signal="bogus")

    def test_bit_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FaultSite(row=0, col=0, signal=SIGNAL_A_REG, bit=8)
        with pytest.raises(ValueError):
            FaultSite(row=0, col=0, signal=SIGNAL_SUM, bit=32)

    def test_with_bit(self):
        site = FaultSite(2, 3, SIGNAL_SUM, 5)
        moved = site.with_bit(9)
        assert moved.bit == 9
        assert (moved.row, moved.col, moved.signal) == (2, 3, SIGNAL_SUM)

    def test_sites_are_hashable_and_ordered(self):
        a = FaultSite(0, 0, SIGNAL_SUM, 0)
        b = FaultSite(0, 1, SIGNAL_SUM, 0)
        assert a < b
        assert len({a, b, FaultSite(0, 0, SIGNAL_SUM, 0)}) == 2

    def test_str(self):
        assert str(FaultSite(3, 4, SIGNAL_SUM, 7)) == "MAC(3,4).sum[7]"


class TestEnumeration:
    def test_mac_sites_default_signal(self):
        sites = list(enumerate_mac_sites(1, 2))
        assert len(sites) == 32  # every bit of the 32-bit adder output
        assert all(s.signal == SIGNAL_SUM for s in sites)
        assert [s.bit for s in sites] == list(range(32))

    def test_mac_sites_custom_bits(self):
        sites = list(enumerate_mac_sites(0, 0, bits=[3, 7]))
        assert [s.bit for s in sites] == [3, 7]

    def test_mac_sites_all_signals(self):
        sites = list(enumerate_mac_sites(0, 0, signals=MAC_SIGNALS))
        assert len(sites) == 8 + 8 + 32 + 32

    def test_mesh_enumeration_cardinality(self):
        # Paper: 16x16 mesh * 32 adder-output bits = 8192 sites.
        sites = list(enumerate_sites(16, 16))
        assert len(sites) == 8192

    def test_mesh_enumeration_covers_every_mac(self):
        sites = list(enumerate_sites(2, 3, bits=[0]))
        assert {(s.row, s.col) for s in sites} == {
            (r, c) for r in range(2) for c in range(3)
        }

    def test_bad_mesh_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_sites(0, 4))


class TestContractEdgeCases:
    """Runtime tests of the signal contract the static linter also enforces."""

    def test_signal_dtype_error_names_the_registry(self):
        with pytest.raises(KeyError) as excinfo:
            signal_dtype("accumulator")
        message = str(excinfo.value)
        for signal in MAC_SIGNALS:
            assert signal in message

    def test_enumerate_mac_sites_unknown_signal(self):
        with pytest.raises(KeyError):
            list(enumerate_mac_sites(0, 0, signals=("not_a_signal",)))

    def test_enumerate_sites_unknown_signal(self):
        with pytest.raises(KeyError):
            list(enumerate_sites(2, 2, signals=("bogus",)))

    def test_zero_size_mesh_rejected_both_axes(self):
        with pytest.raises(ValueError):
            list(enumerate_sites(4, 0))
        with pytest.raises(ValueError):
            list(enumerate_sites(0, 0))

    def test_negative_mesh_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_sites(-1, 4))
        with pytest.raises(ValueError):
            list(enumerate_sites(4, -2))

    def test_empty_signal_selection_yields_nothing(self):
        assert list(enumerate_sites(2, 2, signals=())) == []
        assert list(enumerate_mac_sites(0, 0, signals=())) == []

    def test_empty_bit_selection_yields_nothing(self):
        assert list(enumerate_mac_sites(0, 0, bits=[])) == []
        assert list(enumerate_sites(2, 2, bits=[])) == []

    def test_out_of_range_bit_selection_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_mac_sites(0, 0, signals=(SIGNAL_A_REG,), bits=[8]))

    def test_minimal_mesh(self):
        sites = list(enumerate_sites(1, 1))
        assert len(sites) == 32
        assert all((s.row, s.col) == (0, 0) for s in sites)

    def test_dtype_identity_matches_registry(self):
        # The linter keeps _SIGNAL_DTYPES and MAC_SIGNALS aligned at the AST
        # level; this pins the runtime behaviour to the same contract.
        for signal in MAC_SIGNALS:
            for site in enumerate_mac_sites(0, 0, signals=(signal,), bits=[0]):
                assert site.dtype is signal_dtype(signal)
