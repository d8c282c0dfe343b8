"""Fault-site naming and enumeration for the systolic mesh.

A *fault site* is one bit of one named intermediate signal inside one MAC
unit. The paper injects into the adder-output signal ("right after the
addition logic and before the result is stored in the accumulator"); the
simulator additionally exposes the operand registers and the multiplier
output so that extension studies can target them.

The signal names here are the single source of truth shared by
:mod:`repro.systolic.mac` (which drives them), :mod:`repro.faults.injector`
(which overlays faults on them) and :mod:`repro.core.sampling` (which
enumerates the FI state space over them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.datatypes import INT8, INT32, IntType

__all__ = [
    "SIGNAL_A_REG",
    "SIGNAL_B_REG",
    "SIGNAL_PRODUCT",
    "SIGNAL_SUM",
    "MAC_SIGNALS",
    "PAPER_FAULT_SIGNAL",
    "signal_dtype",
    "FaultSite",
    "enumerate_sites",
    "enumerate_mac_sites",
]

#: Operand register holding the horizontally-moving activation.
SIGNAL_A_REG = "a_reg"
#: Operand register holding the weight (WS) or vertically-moving operand (OS).
SIGNAL_B_REG = "b_reg"
#: Output of the multiplier, before the adder.
SIGNAL_PRODUCT = "product"
#: Output of the adder — the paper's injection point.
SIGNAL_SUM = "sum"

#: All injectable MAC datapath signals, in datapath order.
MAC_SIGNALS: tuple[str, ...] = (
    SIGNAL_A_REG,
    SIGNAL_B_REG,
    SIGNAL_PRODUCT,
    SIGNAL_SUM,
)

#: The signal the paper injects into (Section II-F).
PAPER_FAULT_SIGNAL = SIGNAL_SUM

_SIGNAL_DTYPES: dict[str, IntType] = {
    SIGNAL_A_REG: INT8,
    SIGNAL_B_REG: INT8,
    # Gemmini's INT8 configuration widens products straight into the 32-bit
    # accumulator datapath, so both the multiplier output and the adder
    # output are 32-bit signals.
    SIGNAL_PRODUCT: INT32,
    SIGNAL_SUM: INT32,
}


def signal_dtype(signal: str) -> IntType:
    """Return the :class:`IntType` of a named MAC signal.

    Raises
    ------
    KeyError
        If ``signal`` is not one of :data:`MAC_SIGNALS`.
    """
    try:
        return _SIGNAL_DTYPES[signal]
    except KeyError:
        raise KeyError(
            f"unknown MAC signal {signal!r}; expected one of {MAC_SIGNALS}"
        ) from None


@dataclass(frozen=True, order=True)
class FaultSite:
    """One bit of one signal of one MAC unit.

    Attributes
    ----------
    row, col:
        Physical coordinates of the MAC unit within the mesh.
    signal:
        One of :data:`MAC_SIGNALS`.
    bit:
        Bit position within the signal, 0 = LSB.
    """

    row: int
    col: int
    signal: str = PAPER_FAULT_SIGNAL
    bit: int = 0

    def __post_init__(self) -> None:
        if self.row < 0 or self.col < 0:
            raise ValueError(
                f"MAC coordinates must be non-negative, got ({self.row}, {self.col})"
            )
        dtype = signal_dtype(self.signal)  # validates the signal name
        dtype.check_bit(self.bit)

    @property
    def dtype(self) -> IntType:
        """The integer type of the targeted signal."""
        return signal_dtype(self.signal)

    def with_bit(self, bit: int) -> "FaultSite":
        """A copy of this site targeting a different bit."""
        return FaultSite(self.row, self.col, self.signal, bit)

    def __str__(self) -> str:
        return f"MAC({self.row},{self.col}).{self.signal}[{self.bit}]"


def enumerate_mac_sites(
    row: int,
    col: int,
    signals: Sequence[str] = (PAPER_FAULT_SIGNAL,),
    bits: Sequence[int] | None = None,
) -> Iterator[FaultSite]:
    """Yield every fault site within a single MAC unit.

    Parameters
    ----------
    signals:
        Which datapath signals to enumerate; defaults to the paper's
        injection point (the adder output).
    bits:
        Bit positions to enumerate; defaults to every bit of each signal.
    """
    for signal in signals:
        dtype = signal_dtype(signal)
        signal_bits = range(dtype.width) if bits is None else bits
        for bit in signal_bits:
            yield FaultSite(row=row, col=col, signal=signal, bit=bit)


def enumerate_sites(
    rows: int,
    cols: int,
    signals: Sequence[str] = (PAPER_FAULT_SIGNAL,),
    bits: Sequence[int] | None = None,
) -> Iterator[FaultSite]:
    """Yield every fault site of a ``rows x cols`` mesh.

    The full FI state space of the paper's 16x16 array at the adder output is
    ``16 * 16 * 32 = 8192`` sites per stuck value; campaigns typically fix
    the bit and sweep the 256 MAC positions exhaustively (Section III-B).
    """
    if rows <= 0 or cols <= 0:
        raise ValueError(f"mesh dimensions must be positive, got {rows}x{cols}")
    for row in range(rows):
        for col in range(cols):
            yield from enumerate_mac_sites(row, col, signals=signals, bits=bits)
