"""Closed-form stuck-at delta kernels, batched over fault sites.

The paper's determinism result (Section IV) says a stuck-at fault's
output perturbation is a function of (configuration, dataflow, operation,
site) alone; FLARE exploits the same structure to invert faulty outputs
algebraically. These kernels are that algebra, written against the exact
wrap/force semantics of :class:`~repro.systolic.functional.
FunctionalSimulator` (itself pinned bit-identical to the cycle engine):

* **OS** (:func:`os_chain_tile`) — PE ``(r, c)`` owns output element
  ``(r, c)`` of a tile, accumulated by a short per-cycle recurrence.
  For operand and product faults only the *products* are perturbed, so
  the chain of wrapped additions collapses (associativity of modular
  addition) to one vectorised sum of forced products — no loop at all.
  A stuck SUM bit forces *between* the additions; that recurrence is
  irreducible per cycle, but still vectorises over (site, output tile)
  pairs: one numpy step per mesh cycle covers every tile of one shape
  for the whole batch. Idle (fill/drain) cycles are included — a stuck
  product or operand register perturbs them too.
* **WS** (:func:`ws_chain_tile`) — the partial sum of every output row
  traverses all mesh rows of the faulty column, but forcing happens at
  exactly one row, and wrapped addition is a ring homomorphism
  (``wrap(wrap(x) + y) == wrap(x + y)``). The chain therefore collapses
  to ``wrap(force(state + incl) + total - incl)`` with ``incl`` and
  ``total`` two int64 matmuls — fully vectorised over every output row
  *and* site, no per-cycle loop at all.
* **IS** rides :func:`ws_chain_tile` on the transposed problem, exactly
  as the engines do.

Both kernels advance a *chained* state across reduction tiles: the
faulty partial of tile ``t`` is the bias input of tile ``t + 1``
(``TiledGemm``'s mesh-resident accumulation), so the per-site state out
of one call feeds the next.

Exactness arguments live in ``docs/analytic_engine.md``; the equivalence
itself is pinned by ``tests/engines`` and ``tests/property``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datatypes import IntType, force_bit_array, wrap_array
from repro.faults.sites import (
    SIGNAL_A_REG,
    SIGNAL_B_REG,
    SIGNAL_PRODUCT,
    SIGNAL_SUM,
)

__all__ = ["FaultLens", "os_chain_tile", "ws_chain_tile"]


@dataclass(frozen=True)
class FaultLens:
    """One homogeneous stuck-at family: which bit of which signal is
    forced to what, and the datapath types that define the forcing.

    A campaign batch is grouped by lens before hitting the kernels, so
    each kernel call forces exactly one (signal, bit, value) triple —
    the per-site dimensions are only *where* the fault sits.
    """

    signal: str
    bit: int
    stuck: int
    input_dtype: IntType
    acc_dtype: IntType


def os_chain_tile(
    acc: np.ndarray,
    a_tile: np.ndarray,
    b_tile: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    lens: FaultLens,
    *,
    skew: np.ndarray | None = None,
    tile_shape: tuple[int, int] | None = None,
) -> np.ndarray:
    """Advance OS accumulators through one reduction tile.

    One entry per (site, output tile) pair: the engine batches every
    tile of one shape into a single call, so ``rows``/``cols`` index the
    whole operands with global coordinates while ``skew`` keeps each
    pair's position inside its own tile.

    Parameters
    ----------
    acc:
        int64 ``(P,)`` — each pair's accumulator value entering this
        reduction tile: the chained partial of the preceding tiles,
        exactly the bias the engine would receive.
    a_tile, b_tile:
        The wrapped operand slices ``(M, kt)`` and ``(kt, N)`` of this
        reduction tile.
    rows, cols:
        int64 ``(P,)`` — the output element each pair accumulates, as a
        row of ``a_tile`` and a column of ``b_tile``.
    lens:
        The stuck-at family being forced.
    skew:
        int64 ``(P,)`` — ``r + c`` of the pair's PE within its output
        tile, the cycle its first reduction step arrives. Defaults to
        ``rows + cols`` (the operands are one output tile).
    tile_shape:
        ``(mt, nt)`` of every pair's output tile. Defaults to
        ``(M, N)``.

    Returns the ``(P,)`` accumulators after the tile's full cycle count
    ``(mt-1) + (nt-1) + kt`` — including the idle cycles during pipeline
    fill/drain, whose zero operands still pass the forced datapath.
    """
    kt = a_tile.shape[1]
    if tile_shape is None:
        tile_shape = (a_tile.shape[0], b_tile.shape[1])
    mt, nt = tile_shape
    if skew is None:
        skew = rows + cols
    idle = (mt - 1) + (nt - 1)
    # Each pair's operands over its kt live reduction steps; at cycle t,
    # PE (r, c) sees step t - r - c, and the idle (fill/drain) cycles
    # around those steps stream zeros.
    av = a_tile[rows]
    bv = b_tile[:, cols].T
    acc = np.asarray(acc, dtype=np.int64)
    if lens.signal != SIGNAL_SUM:
        # Forcing touched only the products, so the accumulator is a
        # plain chain of wrapped additions — which collapses by the
        # associativity of modular addition: wrap(... wrap(p_0 + acc)
        # ... + p_T) == wrap(sum(p_t) + acc). No per-cycle loop. A
        # forced operand or product register perturbs the idle cycles'
        # zero operands too, each by the same forced product of zeros.
        zero = np.zeros(1, dtype=np.int64)
        idle_product = _forced_product(zero, zero, lens)
        live = _forced_product(av, bv, lens).sum(axis=1)
        return wrap_array(live + idle * idle_product + acc, lens.acc_dtype)
    # SUM faults force *between* the additions; the recurrence is
    # irreducible, but one forced step per mesh cycle covers every pair.
    # The per-product wrap is dropped: force re-masks its input, so
    # force(wrap(x)) == force(x).
    stream = np.zeros((len(acc), idle + kt), dtype=np.int64)
    stream[
        np.arange(len(acc), dtype=np.int64)[:, None],
        skew[:, None] + np.arange(kt, dtype=np.int64)[None, :],
    ] = av * bv
    for cycle in range(idle + kt):
        acc = force_bit_array(
            stream[:, cycle] + acc, lens.bit, lens.stuck, lens.acc_dtype
        )
    return acc


def _forced_product(
    av: np.ndarray, bv: np.ndarray, lens: FaultLens
) -> np.ndarray:
    """The wrapped product of two operand streams through the lens's
    forced A-register, B-register or product wire."""
    if lens.signal == SIGNAL_A_REG:
        av = force_bit_array(av, lens.bit, lens.stuck, lens.input_dtype)
    elif lens.signal == SIGNAL_B_REG:
        bv = force_bit_array(bv, lens.bit, lens.stuck, lens.input_dtype)
    product = wrap_array(av * bv, lens.acc_dtype)
    if lens.signal == SIGNAL_PRODUCT:
        product = force_bit_array(
            product, lens.bit, lens.stuck, lens.acc_dtype
        )
    return product


def ws_chain_tile(
    col_state: np.ndarray,
    a_tile: np.ndarray,
    w_tile: np.ndarray,
    site_rows: np.ndarray,
    site_cols: np.ndarray,
    mesh_rows: int,
    lens: FaultLens,
) -> np.ndarray:
    """Advance per-site faulty output columns through one reduction tile.

    Parameters
    ----------
    col_state:
        int64 ``(M, S)`` — site ``s``'s faulty output column entering
        this reduction tile (the bias column the engine would receive).
        Output rows are independent, so ``M`` may span every output
        row of the GEMM, not just one tile's.
    a_tile, w_tile:
        The wrapped activation ``(M, kt)`` and weight ``(kt, nt)``
        tiles.
    site_rows, site_cols:
        int64 ``(S,)`` MAC coordinates; every site must satisfy
        ``site_cols < nt``. ``site_rows`` ranges over *all* mesh rows —
        rows at or beyond ``kt`` hold zero weights but still force the
        traversing partial sums (the paper's position independence).
    mesh_rows:
        Physical mesh row count — the length of the partial-sum chain.

    Returns the ``(M, S)`` faulty columns after the tile. The partial
    sum of every output row passes the mesh rows of the site's column
    in order, and the fault forces it at exactly one of them. With
    ``incl`` the products of the rows up to and including the fault row
    and ``total`` those of every row, both one int64 matmul::

        psum  = force(col_state + incl)          # SUM faults
        final = wrap(psum + total - incl)

    and for A-register / B-register / product faults, which change only
    the fault row's product, ``final = wrap(col_state + total - healthy
    + forced)``. The per-product wraps of the hardware are dropped:
    ``wrap`` is a ring homomorphism from int64 (mod 2**64) onto the
    accumulator type, and every term passes a later wrap or force. A
    fault row >= ``kt`` streams zero operands, but a forced *product* is
    still nonzero — which is why the product is forced after zeroing,
    never masked.
    """
    kt = a_tile.shape[1]
    if mesh_rows < kt:
        raise ValueError(
            f"weight tile of {kt} rows exceeds the {mesh_rows}-row mesh"
        )
    w_sites = w_tile[:, site_cols]
    total = a_tile @ w_sites
    if lens.signal == SIGNAL_SUM:
        upto = np.arange(kt, dtype=np.int64)[:, None] <= site_rows[None, :]
        incl = a_tile @ (w_sites * upto)
        # force re-masks its input, so force(wrap(x)) == force(x).
        psum = force_bit_array(
            col_state + incl, lens.bit, lens.stuck, lens.acc_dtype
        )
        return wrap_array(psum + (total - incl), lens.acc_dtype)
    live = site_rows < kt
    at_idx = np.where(live, site_rows, 0)
    av = np.where(live[None, :], a_tile[:, at_idx], 0)
    wv = np.where(live, w_tile[at_idx, site_cols], 0)
    healthy = av * wv[None, :]
    forced = _forced_product(av, wv[None, :], lens)
    return wrap_array(col_state + total - healthy + forced, lens.acc_dtype)
