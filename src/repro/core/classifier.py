"""The paper's fault-pattern taxonomy and the automatic classifier.

Section IV's discussion concludes that every observed pattern falls into one
of six well-defined classes, determined by the spatial distribution of
corrupted output elements:

* ``SINGLE_ELEMENT`` — one corrupted element (OS, untiled; Fig. 3b);
* ``SINGLE_ELEMENT_MULTI_TILE`` — the same local element corrupted in
  several output tiles (OS, tiled; Fig. 3d);
* ``SINGLE_COLUMN`` — one fully corrupted output column (WS, untiled;
  Fig. 3a);
* ``SINGLE_COLUMN_MULTI_TILE`` — the same local column corrupted in several
  column tiles (WS, tiled; Fig. 3c);
* ``SINGLE_CHANNEL`` — one corrupted convolution output channel (Fig. 3e);
* ``MULTI_CHANNEL`` — several corrupted output channels (Fig. 3f/3g).

We add two classes the paper's prose implies but does not name —
``MASKED`` (the fault produced no output corruption — e.g. stuck-at-0 on a
bit that is always 0) and ``OTHER`` (outside the taxonomy; never produced
by single stuck-at faults in our experiments, matching the paper's claim
that SSF patterns are always well-defined) — and two extension classes,
``SINGLE_ROW`` / ``SINGLE_ROW_MULTI_TILE``, produced by the
input-stationary dataflow the paper names but does not evaluate
(Section II-D): under IS the output-row dimension lies across mesh
columns, so a stuck-at fault corrupts an output row, the exact dual of
the WS column pattern.

Classification is purely structural: it looks only at the corruption mask,
the tiling plan and (for convolution) the lowering geometry — never at the
fault location — so it can confirm the paper's determinism claim
independently of the predictor.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.fault_patterns import FaultPattern
from repro.ops.im2col import ConvGeometry
from repro.ops.tiling import TilingPlan

__all__ = [
    "PatternClass",
    "Classification",
    "classify_batch",
    "classify_cells",
    "classify_pattern",
    "classify_mask",
]


class PatternClass(enum.Enum):
    """The fault-pattern classes of Section IV (plus MASKED / OTHER)."""

    MASKED = "masked"
    SINGLE_ELEMENT = "single-element"
    SINGLE_ELEMENT_MULTI_TILE = "single-element multi-tile"
    SINGLE_COLUMN = "single-column"
    SINGLE_COLUMN_MULTI_TILE = "single-column multi-tile"
    SINGLE_CHANNEL = "single-channel"
    MULTI_CHANNEL = "multi-channel"
    # Extension classes (input-stationary dataflow; not in the paper's six).
    SINGLE_ROW = "single-row"
    SINGLE_ROW_MULTI_TILE = "single-row multi-tile"
    OTHER = "other"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Classification:
    """A pattern class plus the structural evidence behind it.

    Attributes
    ----------
    pattern_class:
        The assigned taxonomy class.
    corrupted_tiles:
        Indices ``(m_tile, n_tile)`` of output tiles containing corruption.
    local_cells:
        Within-tile coordinates of corrupted cells, deduplicated — the
        paper's position-independence means these collapse to a single
        element or a single column offset for SSF.
    corrupted_channels:
        Corrupted output channels (convolution patterns only).
    """

    pattern_class: PatternClass
    corrupted_tiles: tuple[tuple[int, int], ...] = ()
    local_cells: tuple[tuple[int, int], ...] = ()
    corrupted_channels: tuple[int, ...] = ()


def _by_site(
    sites: np.ndarray, keys: np.ndarray, space: int, num_sites: int
) -> tuple[np.ndarray, list[int]]:
    """Per site, the sorted distinct ``keys`` (each in ``[0, space)``).

    Returns every site's distinct keys concatenated in site order, and
    how many belong to each site. One ``(site, key)`` presence mask
    covers the whole batch; ``space`` is an output extent, so the mask
    is never larger than the sites' stacked output.
    """
    present = np.zeros((num_sites, space), dtype=bool)
    present[sites, keys] = True
    packed = np.flatnonzero(present)
    return packed % space, np.count_nonzero(present, axis=1).tolist()


def _split(items: list, counts: list[int]) -> list[tuple]:
    """Cut ``items`` into consecutive per-site tuples of ``counts``."""
    bounds = np.concatenate(([0], np.cumsum(counts, dtype=np.int64))).tolist()
    return [tuple(items[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _pairs(keys: np.ndarray, minor: int) -> list[tuple[int, int]]:
    """Unpack ``major * minor + rest`` keys into ``(major, rest)`` ints."""
    major, rest = np.divmod(keys, minor)
    return list(zip(major.tolist(), rest.tolist()))


def classify_batch(
    site_of_cell: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    num_sites: int,
    plan: TilingPlan,
    geometry: ConvGeometry | None = None,
) -> list[Classification]:
    """Classify a whole batch of sites from their corrupted GEMM cells.

    Cell ``i`` at GEMM coordinates ``(rows[i], cols[i])`` belongs to
    site ``site_of_cell[i]`` in ``[0, num_sites)``; a site without cells
    is ``MASKED``. Tile and within-tile coordinates come from one
    integer division and every per-site set from one presence mask over
    (site, key) pairs, so the cost is a few numpy passes over the
    cells, not a Python step per cell. With ``geometry`` the cells
    are a lowered convolution's, whose GEMM columns are its output
    channels: one corrupted channel is ``SINGLE_CHANNEL``, several are
    ``MULTI_CHANNEL``, matching how the paper reads Fig. 3e-3g.

    Returns one :class:`Classification` per site, in site order. These
    are the taxonomy's only rules: every other entry point of this
    module is a single-site call of this function.
    """
    sites = np.asarray(site_of_cell, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    n_tiles = len(plan.n_tiles)
    m_tile, local_row = np.divmod(rows, plan.tile_m)
    n_tile, local_col = np.divmod(cols, plan.tile_n)
    cells = np.bincount(sites, minlength=num_sites).tolist()
    tile_keys, tile_counts = _by_site(
        sites, m_tile * n_tiles + n_tile, len(plan.m_tiles) * n_tiles, num_sites
    )
    local_keys, local_counts = _by_site(
        sites, local_row * plan.tile_n + local_col,
        plan.tile_m * plan.tile_n, num_sites,
    )
    global_cols, col_counts = _by_site(sites, cols, plan.n, num_sites)
    _, local_col_counts = _by_site(sites, local_col, plan.tile_n, num_sites)
    _, local_row_counts = _by_site(sites, local_row, plan.tile_m, num_sites)
    _, row_counts = _by_site(sites, rows, plan.m, num_sites)
    tiles = _split(_pairs(tile_keys, n_tiles), tile_counts)
    locals_ = _split(_pairs(local_keys, plan.tile_n), local_counts)
    channels = _split(global_cols.tolist(), col_counts)

    results: list[Classification] = []
    for site, count in enumerate(cells):
        if count == 0:
            results.append(Classification(pattern_class=PatternClass.MASKED))
            continue
        if geometry is not None:
            results.append(Classification(
                pattern_class=(
                    PatternClass.SINGLE_CHANNEL
                    if len(channels[site]) == 1
                    else PatternClass.MULTI_CHANNEL
                ),
                corrupted_channels=channels[site],
                corrupted_tiles=tiles[site],
            ))
            continue
        if count == 1:
            # One corrupted cell overall: the OS untiled signature.
            pattern_class = PatternClass.SINGLE_ELEMENT
        elif len(locals_[site]) == 1 and count == len(tiles[site]) > 1:
            # One corrupted cell per tile, identical local coordinates:
            # OS tiled.
            pattern_class = PatternClass.SINGLE_ELEMENT_MULTI_TILE
        elif local_col_counts[site] == 1:
            # All corruption in one physical (local) column.
            pattern_class = (
                PatternClass.SINGLE_COLUMN
                if col_counts[site] == 1
                else PatternClass.SINGLE_COLUMN_MULTI_TILE
            )
        elif local_row_counts[site] == 1:
            # All corruption in one physical (local) row: the IS
            # dataflow's dual.
            pattern_class = (
                PatternClass.SINGLE_ROW
                if row_counts[site] == 1
                else PatternClass.SINGLE_ROW_MULTI_TILE
            )
        else:
            pattern_class = PatternClass.OTHER
        results.append(Classification(
            pattern_class=pattern_class,
            corrupted_tiles=tiles[site],
            local_cells=locals_[site],
        ))
    return results


def classify_cells(
    rows: np.ndarray, cols: np.ndarray, plan: TilingPlan
) -> Classification:
    """Classify one site's corrupted GEMM cell coordinates directly.

    :func:`classify_batch` for a single site — for callers that already
    hold the corrupted coordinates.
    """
    rows = np.asarray(rows, dtype=np.int64)
    return classify_batch(
        np.zeros(rows.shape, dtype=np.int64), rows, cols, 1, plan
    )[0]


def classify_mask(mask: np.ndarray, plan: TilingPlan) -> Classification:
    """Classify a raw GEMM-space corruption mask against a tiling plan.

    The same structural rules as :func:`classify_pattern`, exposed for
    callers that have a mask but no :class:`FaultPattern` — notably the
    analytical predictor, which classifies its own support through this
    function so that predicted and observed classes can never diverge on
    degenerate shapes (e.g. a one-row output, where a "full column" and a
    "single element" are the same set of cells).
    """
    rows, cols = np.nonzero(np.asarray(mask, dtype=bool))
    return classify_cells(rows, cols, plan)


def classify_pattern(pattern: FaultPattern) -> Classification:
    """Assign a :class:`PatternClass` to an extracted fault pattern.

    GEMM patterns are classified on the 2-D output matrix against the
    tiling plan. Convolution patterns are classified on the channel
    structure of the ``(N, K, P, Q)`` output: one corrupted channel is
    ``SINGLE_CHANNEL``, several are ``MULTI_CHANNEL``, matching how the
    paper reads Fig. 3e-3g.

    Raises
    ------
    ValueError
        If the pattern carries no tiling plan (required for GEMM and
        convolution classification alike).
    """
    if pattern.plan is None:
        raise ValueError(
            "pattern classification requires the run's tiling plan"
        )
    rows, cols = np.nonzero(pattern.gemm_mask())
    return classify_batch(
        np.zeros(rows.shape, dtype=np.int64),
        rows,
        cols,
        1,
        pattern.plan,
        pattern.geometry,
    )[0]
