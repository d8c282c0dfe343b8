"""Banked scratchpad SRAM model.

Gemmini's scratchpad holds input operands as rows of ``mesh.cols`` INT8
elements, split across banks. The paper's fault model excludes memory
elements (they are ECC-protected, Section II-E assumption 1), so the
scratchpad here is fault-free by construction — but capacity and bank
bookkeeping are modelled, because the tiling loops of the software runtime
are shaped by them (and the Table I "scalability" discussion is about
exactly these resources).
"""

from __future__ import annotations

import numpy as np

from repro.datatypes import INT8, IntType, wrap_array

__all__ = ["Scratchpad"]


class Scratchpad:
    """A row-organised local memory of ``banks * rows_per_bank`` rows.

    Parameters
    ----------
    banks:
        Number of SRAM banks (Gemmini's default configuration uses 4).
    rows_per_bank:
        Rows per bank.
    row_elems:
        Elements per row — equal to the mesh width in Gemmini.
    dtype:
        Element type (INT8 in the paper's configuration).
    """

    def __init__(
        self,
        banks: int = 4,
        rows_per_bank: int = 4096,
        row_elems: int = 16,
        dtype: IntType = INT8,
    ) -> None:
        if banks <= 0 or rows_per_bank <= 0 or row_elems <= 0:
            raise ValueError(
                f"invalid scratchpad geometry: {banks} banks x "
                f"{rows_per_bank} rows x {row_elems} elems"
            )
        self.banks = banks
        self.rows_per_bank = rows_per_bank
        self.row_elems = row_elems
        self.dtype = dtype
        self._data = np.zeros((banks * rows_per_bank, row_elems), dtype=np.int64)
        self.reads = 0
        self.writes = 0

    @property
    def total_rows(self) -> int:
        """Total addressable rows across all banks."""
        return self.banks * self.rows_per_bank

    @property
    def capacity_bytes(self) -> int:
        """Total capacity assuming ``dtype.width``-bit elements."""
        return self.total_rows * self.row_elems * self.dtype.width // 8

    def bank_of(self, row: int) -> int:
        """The bank containing ``row``."""
        self._check_range(row, 1)
        return row // self.rows_per_bank

    def _check_range(self, row: int, rows: int) -> None:
        if row < 0 or row + rows > self.total_rows:
            raise IndexError(
                f"scratchpad rows [{row}, {row + rows}) out of range "
                f"[0, {self.total_rows})"
            )

    def write_block(self, row: int, block: np.ndarray) -> None:
        """Write a ``(rows, cols)`` block starting at ``row``.

        Values are wrapped into the element type, as the narrow SRAM port
        would truncate them. Columns beyond the block are zero-filled —
        matching Gemmini's zero-padding of partial rows.
        """
        block = np.asarray(block)
        if block.ndim != 2:
            raise ValueError(f"expected a 2-D block, got shape {block.shape}")
        rows, cols = block.shape
        if cols > self.row_elems:
            raise ValueError(
                f"block width {cols} exceeds row width {self.row_elems}"
            )
        self._check_range(row, rows)
        self._data[row : row + rows, :] = 0
        self._data[row : row + rows, :cols] = wrap_array(block, self.dtype)
        self.writes += rows

    def read_block(self, row: int, rows: int, cols: int) -> np.ndarray:
        """Read a ``(rows, cols)`` block starting at ``row``."""
        if cols > self.row_elems:
            raise ValueError(
                f"requested width {cols} exceeds row width {self.row_elems}"
            )
        self._check_range(row, rows)
        self.reads += rows
        return self._data[row : row + rows, :cols].copy()
