"""Accumulator SRAM model.

Gemmini accumulates tile results in a dedicated INT32 SRAM that supports
*accumulate-on-write*: a store either overwrites a row or adds to it with
wrap semantics. Reduction-dimension tiling relies on this — each reduction
tile's partial product is added into the same accumulator rows.

Like the scratchpad, the accumulator is fault-free (paper assumption 1:
memory is ECC-protected); faults live in the mesh datapath only.
"""

from __future__ import annotations

import numpy as np

from repro.datatypes import INT32, IntType, wrap_array

__all__ = ["AccumulatorMemory"]


class AccumulatorMemory:
    """A row-organised INT32 memory with accumulate-on-write.

    Parameters
    ----------
    rows:
        Total accumulator rows (Gemmini's default bank holds 4096).
    row_elems:
        Elements per row — the mesh width.
    """

    def __init__(
        self, rows: int = 4096, row_elems: int = 16, dtype: IntType = INT32
    ) -> None:
        if rows <= 0 or row_elems <= 0:
            raise ValueError(
                f"invalid accumulator geometry: {rows} rows x {row_elems} elems"
            )
        self.rows = rows
        self.row_elems = row_elems
        self.dtype = dtype
        self._data = np.zeros((rows, row_elems), dtype=np.int64)
        self.reads = 0
        self.writes = 0

    def _check_range(self, row: int, rows: int) -> None:
        if row < 0 or row + rows > self.rows:
            raise IndexError(
                f"accumulator rows [{row}, {row + rows}) out of range "
                f"[0, {self.rows})"
            )

    def store_block(
        self, row: int, block: np.ndarray, accumulate: bool = False
    ) -> None:
        """Store a ``(rows, cols)`` block; add to existing data if asked."""
        block = np.asarray(block)
        if block.ndim != 2:
            raise ValueError(f"expected a 2-D block, got shape {block.shape}")
        n_rows, cols = block.shape
        if cols > self.row_elems:
            raise ValueError(
                f"block width {cols} exceeds row width {self.row_elems}"
            )
        self._check_range(row, n_rows)
        incoming = wrap_array(block, self.dtype)
        if accumulate:
            existing = self._data[row : row + n_rows, :cols]
            self._data[row : row + n_rows, :cols] = wrap_array(
                existing + incoming, self.dtype
            )
        else:
            self._data[row : row + n_rows, :] = 0
            self._data[row : row + n_rows, :cols] = incoming
        self.writes += n_rows

    def read_block(self, row: int, rows: int, cols: int) -> np.ndarray:
        """Read a ``(rows, cols)`` block starting at ``row``."""
        if cols > self.row_elems:
            raise ValueError(
                f"requested width {cols} exceeds row width {self.row_elems}"
            )
        self._check_range(row, rows)
        self.reads += rows
        return self._data[row : row + rows, :cols].copy()
