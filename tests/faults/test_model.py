"""Unit tests for the fault descriptors (stuck-at, transient, MSF)."""

import pytest

from repro.datatypes import INT32
from repro.faults.model import FaultSet, StuckAtFault, TransientBitFlip
from repro.faults.sites import SIGNAL_SUM, FaultSite

SITE = FaultSite(row=1, col=2, signal=SIGNAL_SUM, bit=4)


class TestStuckAt:
    def test_stuck_at_1_sets_bit(self):
        fault = StuckAtFault(site=SITE, stuck_value=1)
        assert fault.apply(0, INT32, cycle=0) == 16

    def test_stuck_at_0_clears_bit(self):
        fault = StuckAtFault(site=SITE, stuck_value=0)
        assert fault.apply(16, INT32, cycle=0) == 0

    def test_permanent_across_cycles(self):
        fault = StuckAtFault(site=SITE, stuck_value=1)
        for cycle in (0, 1, 17, 10**6):
            assert fault.is_active(cycle)
            assert fault.apply(0, INT32, cycle) == 16

    def test_no_effect_when_bit_agrees(self):
        fault = StuckAtFault(site=SITE, stuck_value=1)
        assert fault.apply(16, INT32, 0) == 16
        fault0 = StuckAtFault(site=SITE, stuck_value=0)
        assert fault0.apply(3, INT32, 0) == 3  # bit 4 already 0

    def test_invalid_stuck_value(self):
        with pytest.raises(ValueError):
            StuckAtFault(site=SITE, stuck_value=2)

    def test_describe_mentions_location(self):
        text = StuckAtFault(site=SITE, stuck_value=1).describe()
        assert "stuck-at-1" in text
        assert "MAC(1,2)" in text
        assert "sum" in text


class TestTransient:
    def test_single_cycle_flip(self):
        fault = TransientBitFlip(site=SITE, start_cycle=5)
        assert fault.apply(0, INT32, 5) == 16
        assert fault.apply(0, INT32, 4) == 0
        assert fault.apply(0, INT32, 6) == 0

    def test_window_flip(self):
        fault = TransientBitFlip(site=SITE, start_cycle=2, end_cycle=4)
        active = [cycle for cycle in range(7) if fault.is_active(cycle)]
        assert active == [2, 3, 4]

    def test_flip_inverts_rather_than_forces(self):
        fault = TransientBitFlip(site=SITE, start_cycle=0, end_cycle=10)
        assert fault.apply(16, INT32, 0) == 0
        assert fault.apply(0, INT32, 0) == 16

    def test_invalid_windows_rejected(self):
        with pytest.raises(ValueError):
            TransientBitFlip(site=SITE, start_cycle=-1)
        with pytest.raises(ValueError):
            TransientBitFlip(site=SITE, start_cycle=5, end_cycle=4)

    def test_describe(self):
        text = TransientBitFlip(site=SITE, start_cycle=3).describe()
        assert "bit-flip" in text and "[3, 3]" in text


class TestFaultSet:
    def test_empty_set_is_falsy(self):
        assert not FaultSet()
        assert len(FaultSet()) == 0
        assert FaultSet().describe() == "no faults (golden run)"

    def test_of_and_iteration(self):
        f1 = StuckAtFault(site=SITE, stuck_value=1)
        f2 = StuckAtFault(site=FaultSite(0, 0, SIGNAL_SUM, 0), stuck_value=0)
        fs = FaultSet.of(f1, f2)
        assert len(fs) == 2
        assert list(fs) == [f1, f2]

    def test_sites_property(self):
        f1 = StuckAtFault(site=SITE, stuck_value=1)
        fs = FaultSet.of(f1)
        assert fs.sites == (SITE,)

    def test_at_site(self):
        f1 = StuckAtFault(site=SITE, stuck_value=1)
        other = FaultSite(3, 3, SIGNAL_SUM, 1)
        fs = FaultSet.of(f1)
        assert fs.at_site(SITE) == (f1,)
        assert fs.at_site(other) == ()

    def test_from_iterable(self):
        faults = (StuckAtFault(site=SITE.with_bit(b)) for b in range(3))
        assert len(FaultSet.from_iterable(faults)) == 3

    def test_describe_joins_members(self):
        fs = FaultSet.of(
            StuckAtFault(site=SITE, stuck_value=1),
            StuckAtFault(site=SITE.with_bit(9), stuck_value=0),
        )
        text = fs.describe()
        assert "stuck-at-1" in text and "stuck-at-0" in text
