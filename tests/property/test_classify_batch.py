"""Batched classification equals classifying each site alone.

:func:`~repro.core.classifier.classify_batch` classifies a whole stack
of sites from their corrupted cells in a few numpy passes. Hypothesis
draws stacks that mix masked sites, single-cell sites, the taxonomy's
structured patterns (a local column, element or row repeated across
tiles) and arbitrary masks, on plans with ragged edge tiles, and checks
every site's batched classification against two single-site answers:
:func:`~repro.core.classifier.classify_mask` and a per-cell set-based
reading of the taxonomy written out below.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classifier import (
    Classification,
    PatternClass,
    classify_batch,
    classify_mask,
    classify_pattern,
)
from repro.core.fault_patterns import FaultPattern
from repro.ops.im2col import ConvGeometry
from repro.ops.tiling import TilingPlan, plan_gemm_tiling
from repro.systolic import Dataflow, MeshConfig

KINDS = ("masked", "single", "column", "element", "row", "random")


def reference_classify(mask: np.ndarray, plan: TilingPlan) -> Classification:
    """The taxonomy cell by cell, with Python sets."""
    cells = [(int(r), int(c)) for r, c in zip(*np.nonzero(mask))]
    if not cells:
        return Classification(pattern_class=PatternClass.MASKED)
    tiles = {(r // plan.tile_m, c // plan.tile_n) for r, c in cells}
    locals_ = {(r % plan.tile_m, c % plan.tile_n) for r, c in cells}
    evidence = dict(
        corrupted_tiles=tuple(sorted(tiles)), local_cells=tuple(sorted(locals_))
    )
    if len(cells) == 1:
        cls = PatternClass.SINGLE_ELEMENT
    elif len(locals_) == 1 and len(cells) == len(tiles) > 1:
        cls = PatternClass.SINGLE_ELEMENT_MULTI_TILE
    elif len({c for _, c in locals_}) == 1:
        single = len({c for _, c in cells}) == 1
        cls = (
            PatternClass.SINGLE_COLUMN
            if single
            else PatternClass.SINGLE_COLUMN_MULTI_TILE
        )
    elif len({r for r, _ in locals_}) == 1:
        single = len({r for r, _ in cells}) == 1
        cls = PatternClass.SINGLE_ROW if single else PatternClass.SINGLE_ROW_MULTI_TILE
    else:
        cls = PatternClass.OTHER
    return Classification(pattern_class=cls, **evidence)


@st.composite
def plans(draw):
    tile_m = draw(st.integers(min_value=1, max_value=4))
    tile_n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=3 * tile_m + 2))
    n = draw(st.integers(min_value=1, max_value=3 * tile_n + 2))
    return TilingPlan(
        m=m, k=1, n=n, tile_m=tile_m, tile_k=1, tile_n=tile_n,
        dataflow=Dataflow.OUTPUT_STATIONARY,
    )


def _site_mask(data, plan: TilingPlan) -> np.ndarray:
    mask = np.zeros((plan.m, plan.n), dtype=bool)
    kind = data.draw(st.sampled_from(KINDS))
    if kind == "single":
        row = data.draw(st.integers(0, plan.m - 1))
        col = data.draw(st.integers(0, plan.n - 1))
        mask[row, col] = True
    elif kind in ("column", "element", "row"):
        local_row = data.draw(st.integers(0, plan.tile_m - 1))
        local_col = data.draw(st.integers(0, plan.tile_n - 1))
        for m_range in plan.m_tiles:
            for n_range in plan.n_tiles:
                if not data.draw(st.booleans()):
                    continue
                rows = range(m_range.start, m_range.stop)
                cols = range(n_range.start, n_range.stop)
                if kind != "row":
                    cols = [c for c in cols if c - n_range.start == local_col]
                if kind != "column":
                    rows = [r for r in rows if r - m_range.start == local_row]
                for row in rows:
                    mask[row, list(cols)] = True
    elif kind == "random":
        bits = data.draw(
            st.lists(st.booleans(), min_size=mask.size, max_size=mask.size)
        )
        mask = np.array(bits, dtype=bool).reshape(mask.shape)
    return mask


@settings(max_examples=150, deadline=None)
@given(plan=plans(), num_sites=st.integers(min_value=1, max_value=6), data=st.data())
def test_batch_equals_each_site_alone(plan, num_sites, data):
    stack = np.stack([_site_mask(data, plan) for _ in range(num_sites)])
    batched = classify_batch(*np.nonzero(stack), num_sites, plan)
    assert len(batched) == num_sites
    for site in range(num_sites):
        assert batched[site] == classify_mask(stack[site], plan)
        assert batched[site] == reference_classify(stack[site], plan)


@settings(max_examples=60, deadline=None)
@given(
    channels=st.integers(min_value=1, max_value=7),
    spatial=st.integers(min_value=2, max_value=5),
    num_sites=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_conv_batch_equals_each_pattern_alone(channels, spatial, num_sites, data):
    """With a geometry the batch classifies by output channel, exactly as
    :func:`~repro.core.classifier.classify_pattern` does per pattern."""
    geometry = ConvGeometry(n=1, c=1, h=spatial, w=spatial, k=channels, r=1, s=1)
    plan = plan_gemm_tiling(
        geometry.gemm_m, geometry.gemm_k, geometry.gemm_n,
        MeshConfig(rows=3, cols=3), Dataflow.WEIGHT_STATIONARY,
    )
    stack = np.stack([_site_mask(data, plan) for _ in range(num_sites)])
    batched = classify_batch(*np.nonzero(stack), num_sites, plan, geometry)
    for site in range(num_sites):
        conv_mask = stack[site].reshape(
            geometry.n, geometry.p, geometry.q, geometry.k
        ).transpose(0, 3, 1, 2)
        pattern = FaultPattern(
            mask=conv_mask,
            deviation=conv_mask.astype(np.int64),
            plan=plan,
            geometry=geometry,
        )
        assert batched[site] == classify_pattern(pattern)
        assert batched[site].corrupted_channels == pattern.corrupted_channels()
