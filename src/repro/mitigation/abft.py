"""Algorithm-based fault tolerance (ABFT) for systolic GEMM.

The classic Huang-Abraham checksum scheme, adapted to an INT8 mesh. The
textbook scheme appends a column-checksum row to ``A`` and a row-checksum
column to ``B``; on an INT8 datapath that is unsound, because checksum
values overflow the 8-bit operand width and would be silently wrapped on
load, breaking the invariant for exactly the high accumulator bits where
stuck-at faults do their damage.

This implementation therefore encodes each checksum vector as **signed
base-256 digit planes**: any INT32 value ``x`` satisfies
``x = sum_j 2**(8*j) * d_j  (mod 2**32)`` with digits ``d_j`` in
``[-128, 127]``. The four digit-plane rows/columns are legal INT8 operands,
their partial products recombine on the host with shifts (wrap-exact), and
every checksum traverses the same (possibly faulty) mesh datapath as the
data — so a fault corrupts checksums consistently with its fault pattern.

Outcomes, tying mitigation back to the paper's taxonomy:

* a **single-element** error (the OS pattern) is located and *corrected* —
  one inconsistent row meets one inconsistent column;
* a **column** error (the WS pattern) is *detected* (every row flags) but
  not correctable from one execution — RQ1's "OS is friendlier", restated
  in mitigation terms.

Correction carries a granularity precondition: the augmented operands
(``M+4 x K`` and ``K x N+4``) must fit a single mesh tile. Once the
operation tiles, a single stuck-at fault replicates across every output
tile (the paper's RQ3), multiple rows *and* columns flag, and ABFT
degrades gracefully to detection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datatypes import INT32, IntType, wrap_array
from repro.ops.gemm import TiledGemm
from repro.systolic.dataflow import Dataflow

__all__ = [
    "NUM_PLANES",
    "AbftReport",
    "AbftGemm",
    "signed_digit_planes",
    "recombine_digit_planes",
]

#: Digit planes needed to cover the 32-bit accumulator domain.
NUM_PLANES = 4


def signed_digit_planes(values: np.ndarray, planes: int = NUM_PLANES) -> np.ndarray:
    """Decompose INT32 values into signed base-256 digits.

    Returns a ``(planes, len(values))`` array with entries in
    ``[-128, 127]`` such that ``sum_j 2**(8*j) * out[j]`` equals the input
    modulo ``2**32``. This is the INT8-legal encoding of a checksum vector.
    """
    raw = np.asarray(values, dtype=np.int64) & 0xFFFFFFFF
    digits = np.zeros((planes, raw.size), dtype=np.int64)
    residue = raw.copy()
    for j in range(planes):
        digit = ((residue + 128) & 255) - 128
        digits[j] = digit
        residue = (residue - digit) >> 8
    return digits.reshape(planes, *np.asarray(values).shape)


def recombine_digit_planes(plane_rows: np.ndarray, dtype: IntType = INT32) -> np.ndarray:
    """Inverse of the plane trick after matrix multiplication.

    Given the ``(planes, n)`` products of the digit-plane rows with some
    matrix, reconstruct the product the un-decomposed checksum row would
    have produced, modulo ``2**width``.
    """
    plane_rows = np.asarray(plane_rows, dtype=np.int64)
    total = np.zeros(plane_rows.shape[1:], dtype=np.int64)
    for j in range(plane_rows.shape[0]):
        total = wrap_array(total + (plane_rows[j] << (8 * j)), dtype)
    return total


@dataclass(frozen=True)
class AbftReport:
    """Outcome of one checksum-protected GEMM."""

    output: np.ndarray
    detected: bool
    corrected: bool
    inconsistent_rows: tuple[int, ...]
    inconsistent_cols: tuple[int, ...]
    correction_location: tuple[int, int] | None = None

    @property
    def verdict(self) -> str:
        """One-word outcome: clean / corrected / detected."""
        if not self.detected:
            return "clean"
        return "corrected" if self.corrected else "detected"


class AbftGemm:
    """Checksum-protected GEMM executor over any mesh engine.

    Parameters
    ----------
    engine:
        A (possibly faulty) mesh engine; the augmented product — data plus
        digit-plane checksum rows/columns — runs through the same datapath
        as an unprotected GEMM would.
    dataflow:
        Mapping scheme for the protected execution.
    """

    def __init__(self, engine, dataflow: Dataflow) -> None:
        self.engine = engine
        self.dataflow = dataflow
        self._gemm = TiledGemm(engine)
        self._dtype = engine.config.acc_dtype

    # ------------------------------------------------------------------
    def __call__(self, a: np.ndarray, b: np.ndarray) -> AbftReport:
        """Compute ``A @ B`` with detection/correction of single errors."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(
                f"incompatible GEMM operands: {a.shape} @ {b.shape}"
            )
        m, _ = a.shape
        n = b.shape[1]
        dtype = self._dtype

        # Host-side encoding (fault-free, per the paper's ECC assumption).
        col_planes = signed_digit_planes(a.sum(axis=0))  # (P, K)
        row_planes = signed_digit_planes(b.sum(axis=1))  # (P, K)
        a_aug = np.vstack([a, col_planes])
        b_aug = np.hstack([b, row_planes.T])

        full = self._gemm(a_aug, b_aug, self.dataflow).output
        data = full[:m, :n]
        # Recombine the digit-plane products into the checksum the plain
        # scheme would have computed.
        col_checksums = recombine_digit_planes(full[m:, :n], dtype)  # (N,)
        row_checksums = recombine_digit_planes(full[:m, n:].T, dtype)  # (M,)

        expected_rows = wrap_array(data.sum(axis=1), dtype)
        expected_cols = wrap_array(data.sum(axis=0), dtype)
        bad_rows = tuple(
            int(i) for i in np.where(expected_rows != row_checksums)[0]
        )
        bad_cols = tuple(
            int(j) for j in np.where(expected_cols != col_checksums)[0]
        )

        detected = bool(bad_rows or bad_cols)
        corrected = False
        location = None
        output = data.copy()
        if len(bad_rows) == 1 and len(bad_cols) == 1:
            row, col = bad_rows[0], bad_cols[0]
            others = wrap_array(np.delete(data[:, col], row).sum(), dtype)
            output[row, col] = int(
                wrap_array(np.asarray(col_checksums[col] - others), dtype)
            )
            corrected = True
            location = (row, col)
        return AbftReport(
            output=output,
            detected=detected,
            corrected=corrected,
            inconsistent_rows=bad_rows,
            inconsistent_cols=bad_cols,
            correction_location=location,
        )
