"""The multiply-and-accumulate (MAC) datapath model.

This is the heart of the RTL-equivalent substrate. Each MAC unit drives four
named intermediate signals in datapath order, matching Fig. 2 of the paper:

``a_reg`` / ``b_reg``
    The latched input operands (activation and weight / moving operand).
``product``
    The multiplier output (widened into the accumulator type, as in
    Gemmini's INT8 configuration).
``sum``
    The adder output, *before* it is stored into the accumulator register or
    forwarded as a partial sum. This is the paper's injection point
    ("right after the addition logic and before the result is stored in the
    accumulator", Section II-F).

Every drive passes through the :class:`~repro.faults.injector.FaultInjector`
overlay, so a stuck-at fault perturbs the signal on every cycle exactly as a
shorted wire would. An optional :class:`~repro.systolic.signals.SignalProbe`
observes the post-fault values.
"""

from __future__ import annotations

from repro.datatypes import INT8, INT32, IntType
from repro.faults.injector import NO_FAULTS, FaultInjector
from repro.faults.sites import (
    SIGNAL_A_REG,
    SIGNAL_B_REG,
    SIGNAL_PRODUCT,
    SIGNAL_SUM,
)
from repro.systolic.signals import SignalEvent, SignalProbe

__all__ = ["MacUnit"]


class MacUnit:
    """A single MAC unit at mesh position ``(row, col)``.

    Parameters
    ----------
    row, col:
        Physical coordinates; used to look up faults targeting this unit.
    injector:
        The fault overlay (shared across the mesh).
    input_dtype:
        Operand type; the paper uses INT8.
    acc_dtype:
        Accumulator/partial-sum type; the paper's Gemmini config uses INT32.
    probe:
        Optional signal observer. ``None`` keeps the hot path branch-free.
    """

    __slots__ = (
        "row",
        "col",
        "input_dtype",
        "acc_dtype",
        "_injector",
        "_probe",
        "_faulty",
    )

    def __init__(
        self,
        row: int,
        col: int,
        injector: FaultInjector = NO_FAULTS,
        input_dtype: IntType = INT8,
        acc_dtype: IntType = INT32,
        probe: SignalProbe | None = None,
    ) -> None:
        self.row = row
        self.col = col
        self.input_dtype = input_dtype
        self.acc_dtype = acc_dtype
        self._injector = injector
        self._probe = probe
        # Cache whether this MAC is fault-free: the common case (255 of 256
        # units in an SSF campaign) then skips all perturbation lookups.
        self._faulty = injector.touches_mac(row, col)

    # ------------------------------------------------------------------
    # Signal driving
    # ------------------------------------------------------------------
    def _drive(self, signal: str, value: int, cycle: int) -> int:
        """Drive ``signal`` with ``value``; return the post-fault value."""
        if self._faulty:
            value = self._injector.perturb(self.row, self.col, signal, value, cycle)
        if self._probe is not None:
            self._probe.observe(
                SignalEvent(
                    cycle=cycle,
                    row=self.row,
                    col=self.col,
                    signal=signal,
                    value=value,
                )
            )
        return value

    # ------------------------------------------------------------------
    # The datapath
    # ------------------------------------------------------------------
    def compute(self, a: int, b: int, addend: int, cycle: int) -> int:
        """One MAC operation: ``sum = addend + a * b`` with wrap semantics.

        ``addend`` is the accumulator value (OS dataflow) or the incoming
        partial sum (WS dataflow). All four datapath signals are driven in
        order, each subject to fault perturbation, so a fault on ``a_reg``
        propagates through the product and the sum exactly as in hardware.

        Returns the adder output (post-fault), which the caller stores into
        the accumulator register or forwards down the column.
        """
        if not self._faulty and self._probe is None:
            # Fast path: pure wrapping arithmetic.
            product = self.acc_dtype.wrap(
                self.input_dtype.wrap(a) * self.input_dtype.wrap(b)
            )
            return self.acc_dtype.wrap(product + addend)

        a = self._drive(SIGNAL_A_REG, self.input_dtype.wrap(a), cycle)
        b = self._drive(SIGNAL_B_REG, self.input_dtype.wrap(b), cycle)
        product = self._drive(SIGNAL_PRODUCT, self.acc_dtype.wrap(a * b), cycle)
        return self._drive(SIGNAL_SUM, self.acc_dtype.wrap(product + addend), cycle)

    @property
    def is_faulty(self) -> bool:
        """Whether any configured fault targets this MAC unit."""
        return self._faulty
