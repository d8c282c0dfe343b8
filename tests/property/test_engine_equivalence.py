"""Property: the functional engine is bit-exact with the cycle engine.

This equivalence is what licenses running the paper's large (112x112)
campaigns on the vectorised engine: for every operand, dataflow, fault
signal, bit, polarity, and fault location, the two engines must produce the
identical output — including transient-fault timing and multi-fault sets.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    FaultInjector,
    FaultSet,
    FaultSite,
    StuckAtFault,
    TransientBitFlip,
)
from repro.faults.sites import MAC_SIGNALS, signal_dtype
from repro.systolic import CycleSimulator, Dataflow, FunctionalSimulator, MeshConfig

MESH = MeshConfig(rows=5, cols=5)

dims = st.integers(min_value=1, max_value=5)
long_dim = st.integers(min_value=1, max_value=9)
elements = st.integers(min_value=-128, max_value=127)
dataflows = st.sampled_from(list(Dataflow))
signals = st.sampled_from(MAC_SIGNALS)
coords = st.integers(min_value=0, max_value=4)
stuck = st.sampled_from([0, 1])


def matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(-128, 128, size=(rows, cols))


@st.composite
def fault_strategy(draw, row=None, col=None):
    signal = draw(signals)
    bit = draw(st.integers(min_value=0, max_value=signal_dtype(signal).width - 1))
    site = FaultSite(
        row=draw(coords) if row is None else row,
        col=draw(coords) if col is None else col,
        signal=signal,
        bit=bit,
    )
    kind = draw(st.sampled_from(["stuck", "transient", "window"]))
    if kind == "stuck":
        return StuckAtFault(site=site, stuck_value=draw(stuck))
    start = draw(st.integers(min_value=0, max_value=15))
    if kind == "transient":
        return TransientBitFlip(site=site, start_cycle=start)
    return TransientBitFlip(
        site=site,
        start_cycle=start,
        end_cycle=start + draw(st.integers(min_value=0, max_value=10)),
    )


@settings(max_examples=120, deadline=None)
@given(
    m=dims,
    k=long_dim,
    n=dims,
    seed=st.integers(min_value=0, max_value=2**31),
    dataflow=dataflows,
    fault=fault_strategy(),
)
def test_single_fault_equivalence(m, k, n, seed, dataflow, fault):
    a = matrix(m, k, seed)
    b = matrix(k, n, seed + 1)
    if dataflow is not Dataflow.OUTPUT_STATIONARY and k > MESH.rows:
        k = MESH.rows
        a, b = a[:, :k], b[:k, :]
    injector = FaultInjector(FaultSet.of(fault))
    cycle = CycleSimulator(MESH, injector).matmul(a, b, dataflow)
    fast = FunctionalSimulator(MESH, injector).matmul(a, b, dataflow)
    assert np.array_equal(cycle, fast)


@settings(max_examples=40, deadline=None)
@given(
    m=dims,
    k=dims,
    n=dims,
    seed=st.integers(min_value=0, max_value=2**31),
    dataflow=dataflows,
    faults=st.lists(fault_strategy(), min_size=2, max_size=4),
)
def test_multi_fault_equivalence(m, k, n, seed, dataflow, faults):
    a = matrix(m, k, seed)
    b = matrix(k, n, seed + 1)
    injector = FaultInjector(FaultSet.from_iterable(faults))
    cycle = CycleSimulator(MESH, injector).matmul(a, b, dataflow)
    fast = FunctionalSimulator(MESH, injector).matmul(a, b, dataflow)
    assert np.array_equal(cycle, fast)


@settings(max_examples=60, deadline=None)
@given(
    m=dims,
    k=long_dim,
    n=dims,
    seed=st.integers(min_value=0, max_value=2**31),
    dataflow=dataflows,
)
def test_golden_equivalence_and_correctness(m, k, n, seed, dataflow):
    a = matrix(m, k, seed)
    b = matrix(k, n, seed + 1)
    if dataflow is not Dataflow.OUTPUT_STATIONARY and k > MESH.rows:
        k = MESH.rows
        a, b = a[:, :k], b[:k, :]
    cycle = CycleSimulator(MESH).matmul(a, b, dataflow)
    fast = FunctionalSimulator(MESH).matmul(a, b, dataflow)
    reference = a.astype(np.int64) @ b.astype(np.int64)
    assert np.array_equal(cycle, reference)
    assert np.array_equal(fast, reference)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    dataflow=dataflows,
    fault=fault_strategy(),
    bias_scale=st.integers(min_value=0, max_value=2**20),
)
def test_bias_path_equivalence(seed, dataflow, fault, bias_scale):
    rng = np.random.default_rng(seed)
    a = rng.integers(-128, 128, size=(4, 4))
    b = rng.integers(-128, 128, size=(4, 4))
    bias = rng.integers(-bias_scale - 1, bias_scale + 1, size=(4, 4))
    injector = FaultInjector(FaultSet.of(fault))
    cycle = CycleSimulator(MESH, injector).matmul(a, b, dataflow, bias=bias)
    fast = FunctionalSimulator(MESH, injector).matmul(a, b, dataflow, bias=bias)
    assert np.array_equal(cycle, fast)


@st.composite
def one_column_faults(draw, col: int):
    """2-4 faults stacked in mesh column ``col`` on distinct rows, always
    one on an edge row (0 or the last). With ``k`` below the mesh rows,
    rows at or beyond ``k`` drive zero operands through the faulty MAC."""
    last = MESH.rows - 1
    edge = draw(st.sampled_from([0, last]))
    others = draw(
        st.lists(
            st.integers(min_value=0, max_value=last).filter(lambda r: r != edge),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    return [draw(fault_strategy(row, col)) for row in [edge, *others]]


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    m=dims,
    k=st.integers(min_value=1, max_value=MESH.rows - 1),
    n=dims,
    seed=st.integers(min_value=0, max_value=2**31),
    dataflow=st.sampled_from(
        [Dataflow.WEIGHT_STATIONARY, Dataflow.INPUT_STATIONARY]
    ),
)
def test_stacked_column_faults_equivalence(data, m, k, n, seed, dataflow):
    # The functional WS overlay walks only the faulty rows of a column and
    # sums each fault-free run in one mat-vec; IS reaches it transposed.
    width = n if dataflow is Dataflow.WEIGHT_STATIONARY else m
    col = data.draw(st.integers(min_value=0, max_value=width - 1))
    faults = data.draw(one_column_faults(col))
    rng = np.random.default_rng(seed)
    a = rng.integers(-128, 128, size=(m, k))
    b = rng.integers(-128, 128, size=(k, n))
    bias = rng.integers(-(2**31), 2**31, size=(m, n))
    injector = FaultInjector(FaultSet.from_iterable(faults))
    cycle = CycleSimulator(MESH, injector).matmul(a, b, dataflow, bias=bias)
    fast = FunctionalSimulator(MESH, injector).matmul(a, b, dataflow, bias=bias)
    assert np.array_equal(cycle, fast)
