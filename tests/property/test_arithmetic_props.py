"""Property-based tests for the fixed-width arithmetic substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import (
    INT8,
    INT16,
    INT32,
    UINT8,
    flip_bit_array,
    force_bit_array,
    wrap_array,
)

ints = st.integers(min_value=-(2**40), max_value=2**40)
int8_bits = st.integers(min_value=0, max_value=7)
int32_bits = st.integers(min_value=0, max_value=31)
stuck = st.sampled_from([0, 1])


class TestWrapProperties:
    @given(ints)
    def test_wrap_is_idempotent(self, value):
        assert INT32.wrap(INT32.wrap(value)) == INT32.wrap(value)

    @given(ints)
    def test_wrap_lands_in_range(self, value):
        wrapped = INT8.wrap(value)
        assert INT8.min_value <= wrapped <= INT8.max_value

    @given(ints)
    def test_wrap_preserves_residue(self, value):
        assert INT32.wrap(value) % 2**32 == value % 2**32

    @given(ints, ints)
    def test_wrapped_addition_is_homomorphic(self, a, b):
        # wrap(a + b) == wrap(wrap(a) + wrap(b)): stepwise and end-of-chain
        # wrapping agree, the fact the functional engine relies on.
        assert INT32.wrap(a + b) == INT32.wrap(INT32.wrap(a) + INT32.wrap(b))

    @given(ints, ints, ints)
    def test_wrapped_addition_associative(self, a, b, c):
        left = INT32.wrap(INT32.wrap(a + b) + c)
        right = INT32.wrap(a + INT32.wrap(b + c))
        assert left == right


class TestBitForceProperties:
    @given(ints, int32_bits, stuck)
    def test_force_is_idempotent(self, value, bit, stuck_value):
        once = INT32.force_bit(value, bit, stuck_value)
        assert INT32.force_bit(once, bit, stuck_value) == once

    @given(ints, int32_bits, stuck)
    def test_forced_bit_reads_back(self, value, bit, stuck_value):
        forced = INT32.force_bit(value, bit, stuck_value)
        assert INT32.get_bit(forced, bit) == stuck_value

    @given(ints, int32_bits, stuck)
    def test_force_changes_only_target_bit(self, value, bit, stuck_value):
        forced = INT32.force_bit(value, bit, stuck_value)
        delta = INT32.to_unsigned(forced) ^ INT32.to_unsigned(INT32.wrap(value))
        assert delta in (0, 1 << bit)

    @given(ints, int32_bits)
    def test_flip_is_involution(self, value, bit):
        wrapped = INT32.wrap(value)
        assert INT32.flip_bit(INT32.flip_bit(wrapped, bit), bit) == wrapped

    @given(ints, int32_bits)
    def test_flip_deviation_is_power_of_two(self, value, bit):
        flipped = INT32.flip_bit(value, bit)
        deviation = INT32.to_unsigned(flipped) ^ INT32.to_unsigned(INT32.wrap(value))
        assert deviation == 1 << bit


class TestVectorisedAgreement:
    @given(st.lists(ints, min_size=1, max_size=50))
    def test_wrap_array_matches_scalar(self, values):
        array = np.array(values, dtype=np.int64)
        wrapped = wrap_array(array, INT8)
        assert wrapped.tolist() == [INT8.wrap(v) for v in values]

    @given(st.lists(ints, min_size=1, max_size=50), int32_bits, stuck)
    def test_force_array_matches_scalar(self, values, bit, stuck_value):
        array = np.array(values, dtype=np.int64)
        forced = force_bit_array(array, bit, stuck_value, INT32)
        assert forced.tolist() == [
            INT32.force_bit(v, bit, stuck_value) for v in values
        ]

    @given(st.lists(ints, min_size=1, max_size=50), int8_bits)
    def test_flip_array_matches_scalar(self, values, bit):
        array = np.array(values, dtype=np.int64)
        flipped = flip_bit_array(array, bit, INT8)
        assert flipped.tolist() == [INT8.flip_bit(v, bit) for v in values]


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
int64s = st.integers(min_value=INT64_MIN, max_value=INT64_MAX)
types = st.sampled_from([INT8, INT16, INT32, UINT8])


def boundary_values(dtype):
    """int64 extremes and the values around each ±2^(w-1) and 2^w edge."""
    half, full = 1 << (dtype.width - 1), 1 << dtype.width
    edges = [0, half, -half, full, -full, INT64_MIN, INT64_MAX]
    return [v + d for v in edges for d in (-1, 0, 1) if INT64_MIN <= v + d <= INT64_MAX]


class TestVectorisedExactness:
    """The array helpers equal the scalar IntType operations for every int64
    input, including those whose branchless offset wraps int64."""

    @given(types, st.lists(int64s, max_size=30))
    def test_wrap_array(self, dtype, randoms):
        values = boundary_values(dtype) + randoms
        wrapped = wrap_array(np.array(values, dtype=np.int64), dtype)
        assert wrapped.dtype == np.int64
        assert wrapped.tolist() == [dtype.wrap(v) for v in values]

    @given(types, st.lists(int64s, max_size=30), st.data(), stuck)
    def test_force_bit_array(self, dtype, randoms, data, stuck_value):
        bit = data.draw(st.integers(min_value=0, max_value=dtype.width - 1))
        values = boundary_values(dtype) + randoms
        forced = force_bit_array(np.array(values, dtype=np.int64), bit, stuck_value, dtype)
        assert forced.tolist() == [dtype.force_bit(v, bit, stuck_value) for v in values]

    @given(types, st.lists(int64s, max_size=30), st.data())
    def test_flip_bit_array(self, dtype, randoms, data):
        bit = data.draw(st.integers(min_value=0, max_value=dtype.width - 1))
        values = boundary_values(dtype) + randoms
        flipped = flip_bit_array(np.array(values, dtype=np.int64), bit, dtype)
        assert flipped.tolist() == [dtype.flip_bit(v, bit) for v in values]
