"""Hardware fault models for the systolic-array datapath.

The paper (Section II-E/II-F) uses the *single stuck-at fault* (SSF) model:
one bit of one intermediate signal of one MAC unit is permanently forced to 0
or 1. This module defines that model plus the two extensions discussed by the
paper's related work:

* :class:`TransientBitFlip` — a radiation-style single-event upset that
  inverts a bit during a window of cycles (Rech et al.'s fault model).
* :class:`FaultSet` — multiple simultaneous faults (the MSF model of
  Zhang et al.), used by the SSF-vs-MSF coverage bench.

A fault is *pure data*: it names a :class:`~repro.faults.sites.FaultSite`
and describes how the signal value is perturbed. Simulation engines call
:meth:`FaultDescriptor.apply` on every cycle in which the signal is driven.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.datatypes import IntType
from repro.faults.sites import FaultSite

if TYPE_CHECKING:
    from repro.systolic.dataflow import Dataflow

__all__ = [
    "FaultDescriptor",
    "StuckAtFault",
    "TransientBitFlip",
    "BridgingFault",
    "FaultSet",
]


@dataclass(frozen=True)
class FaultDescriptor:
    """Base class for all fault models.

    Subclasses implement :meth:`apply`, which perturbs a signal value given
    the current cycle. The base class is never injected directly.
    """

    site: FaultSite

    def apply(self, value: int, dtype: IntType, cycle: int) -> int:
        """Return the faulty value of ``value`` at ``cycle``.

        Parameters
        ----------
        value:
            The fault-free value driven onto the signal.
        dtype:
            The signal's integer type (used for bit forcing).
        cycle:
            The current simulation cycle; permanent faults ignore it.
        """
        raise NotImplementedError

    def is_active(self, cycle: int) -> bool:
        """Whether the fault perturbs the signal at ``cycle``."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human-readable description."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Analytic queries (the closed-form delta engine's interface)
    # ------------------------------------------------------------------
    def has_closed_form(self) -> bool:
        """Whether :mod:`repro.engines.analytic` can derive this fault's
        output delta in closed form instead of simulating.

        The base answer is conservative: only fault models whose effect
        is a pure, cycle-independent function of the driven value (and
        which the delta algebra explicitly implements) return True.
        Everything else is evaluated by falling back to the functional
        engine, which is exact for arbitrary :meth:`apply` overrides.
        """
        return False

    def tile_footprint(
        self, dataflow: "Dataflow", tile_m: int, tile_n: int
    ) -> tuple[tuple[int, int], ...]:
        """Local output coordinates this fault can reach in one tile.

        Pure geometry — which elements of a ``tile_m x tile_n`` output
        tile the fault's MAC touches under ``dataflow`` — independent of
        the fault model (every datapath fault of one MAC shares the same
        reach). An empty tuple means the fault is architecturally masked
        for tiles of that shape.
        """
        from repro.systolic.dataflow import site_tile_footprint

        return site_tile_footprint(
            dataflow, self.site.row, self.site.col, tile_m, tile_n
        )


@dataclass(frozen=True)
class StuckAtFault(FaultDescriptor):
    """A permanent stuck-at-0 or stuck-at-1 fault on one bit of a signal.

    This is the paper's fault model: the faulty wire carries ``stuck_value``
    on every cycle, regardless of the value being driven.

    Attributes
    ----------
    stuck_value:
        0 for stuck-at-0, 1 for stuck-at-1.
    """

    stuck_value: int = 1

    def __post_init__(self) -> None:
        if self.stuck_value not in (0, 1):
            raise ValueError(
                f"stuck_value must be 0 or 1, got {self.stuck_value}"
            )

    def apply(self, value: int, dtype: IntType, cycle: int) -> int:
        return dtype.force_bit(value, self.site.bit, self.stuck_value)

    def is_active(self, cycle: int) -> bool:
        return True

    def has_closed_form(self) -> bool:
        """Stuck-at forcing is cycle-independent and value-local, so the
        analytic engine closes over it exactly (see
        :mod:`repro.engines.analytic`). Only the exact class qualifies: a
        subclass may override :meth:`apply` arbitrarily, and the algebra
        would silently diverge from it."""
        return type(self) is StuckAtFault

    def describe(self) -> str:
        return (
            f"stuck-at-{self.stuck_value} on {self.site.signal} bit "
            f"{self.site.bit} of MAC({self.site.row},{self.site.col})"
        )


@dataclass(frozen=True)
class TransientBitFlip(FaultDescriptor):
    """A transient bit-flip active during ``[start_cycle, end_cycle]``.

    Models a single-event upset: the affected bit is inverted while the fault
    is active and behaves normally outside the window. ``end_cycle=None``
    flips exactly one cycle (``start_cycle``), the common SEU case.
    """

    start_cycle: int = 0
    end_cycle: int | None = None

    def __post_init__(self) -> None:
        if self.start_cycle < 0:
            raise ValueError(f"start_cycle must be >= 0, got {self.start_cycle}")
        if self.end_cycle is not None and self.end_cycle < self.start_cycle:
            raise ValueError(
                f"end_cycle {self.end_cycle} precedes start_cycle {self.start_cycle}"
            )

    def apply(self, value: int, dtype: IntType, cycle: int) -> int:
        if not self.is_active(cycle):
            return value
        return dtype.flip_bit(value, self.site.bit)

    def is_active(self, cycle: int) -> bool:
        end = self.start_cycle if self.end_cycle is None else self.end_cycle
        return self.start_cycle <= cycle <= end

    def describe(self) -> str:
        end = self.start_cycle if self.end_cycle is None else self.end_cycle
        return (
            f"bit-flip on {self.site.signal} bit {self.site.bit} of "
            f"MAC({self.site.row},{self.site.col}) during cycles "
            f"[{self.start_cycle}, {end}]"
        )


@dataclass(frozen=True)
class BridgingFault(FaultDescriptor):
    """Two wires of one bus shorted together (wired-AND / wired-OR).

    The classic non-stuck-at defect (McCluskey & Tseng's "actual defects"
    discussion, which the paper cites to justify the stuck-at model):
    bits ``site.bit`` and ``other_bit`` of the signal are resistively
    bridged, and both read back the AND (or OR) of the two driven values.

    Spatially this behaves like any other single-MAC datapath fault — the
    corruption geometry is still the dataflow's pattern class — which is
    exactly the paper's argument that stuck-at-derived characterisation
    carries over to most real defects. The bridging bench verifies that
    claim empirically.
    """

    other_bit: int = 0
    mode: str = "and"

    def __post_init__(self) -> None:
        self.site.dtype.check_bit(self.other_bit)
        if self.other_bit == self.site.bit:
            raise ValueError("a bridge needs two distinct wires")
        if self.mode not in ("and", "or"):
            raise ValueError(f"mode must be 'and' or 'or', got {self.mode!r}")

    def apply(self, value: int, dtype: IntType, cycle: int) -> int:
        first = dtype.get_bit(value, self.site.bit)
        second = dtype.get_bit(value, self.other_bit)
        merged = (first & second) if self.mode == "and" else (first | second)
        value = dtype.force_bit(value, self.site.bit, merged)
        return dtype.force_bit(value, self.other_bit, merged)

    def is_active(self, cycle: int) -> bool:
        return True

    def describe(self) -> str:
        return (
            f"wired-{self.mode.upper()} bridge between {self.site.signal} "
            f"bits {self.site.bit} and {self.other_bit} of "
            f"MAC({self.site.row},{self.site.col})"
        )


@dataclass(frozen=True)
class FaultSet:
    """An immutable collection of simultaneous faults (the MSF model).

    Zhang et al. inject multiple stuck-at faults; the paper argues SSF tests
    cover ~98% of small MSF sets. :class:`FaultSet` lets campaigns express
    both: an SSF campaign uses singleton sets.
    """

    faults: tuple[FaultDescriptor, ...] = ()

    @classmethod
    def of(cls, *faults: FaultDescriptor) -> "FaultSet":
        """Build a fault set from individual descriptors."""
        return cls(faults=tuple(faults))

    @classmethod
    def from_iterable(cls, faults: Iterable[FaultDescriptor]) -> "FaultSet":
        """Build a fault set from any iterable of descriptors."""
        return cls(faults=tuple(faults))

    def __iter__(self) -> Iterator[FaultDescriptor]:
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    @property
    def sites(self) -> tuple[FaultSite, ...]:
        """The sites touched by this fault set."""
        return tuple(f.site for f in self.faults)

    def at_site(self, site: FaultSite) -> tuple[FaultDescriptor, ...]:
        """All faults affecting ``site`` (usually zero or one)."""
        return tuple(f for f in self.faults if f.site == site)

    def describe(self) -> str:
        """Multi-line description of every member fault."""
        if not self.faults:
            return "no faults (golden run)"
        return "; ".join(f.describe() for f in self.faults)
