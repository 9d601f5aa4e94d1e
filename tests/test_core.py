import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpdist.core import (
    ApproxSpec,
    BitVector,
    GapParams,
    GapValue,
    NeighborSpec,
    as_bits,
    gap_threshold,
    is_neighbor,
    min_window_weight,
    min_window_weight_gridded,
    sum_bits,
)


def naive_min_window(bits, window):
    """Independent oracle: recompute every window sum from scratch."""
    bits = list(bits)
    return min(sum(bits[i : i + window]) for i in range(len(bits) - window + 1))


def naive_min_window_gridded(bits, window, interval):
    bits = list(bits)
    starts = range(0, len(bits) - window + 1, interval)
    return min(sum(bits[i : i + window]) for i in starts)


def _read_only(bits):
    arr = np.array(bits, dtype=np.uint8)
    arr.setflags(write=False)
    return arr


bit_lists = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=64)


class TestBitVector:
    def test_valid_construction(self):
        v = BitVector([1, 0, 1])
        assert v.n == 3 and len(v) == 3
        assert list(v) == [1, 0, 1]
        assert v[1] == 0

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            BitVector([0, 2, 1])
        with pytest.raises(ValueError):
            BitVector([[0, 1], [1, 0]])

    def test_immutable(self):
        v = BitVector([1, 0])
        with pytest.raises(ValueError):
            v.bits[0] = 0

    def test_zeros_ones_replace(self):
        assert sum_bits(BitVector.zeros(5)) == 0
        assert sum_bits(BitVector.ones(5)) == 5
        assert list(BitVector.zeros(3).replace(1, 1)) == [0, 1, 0]

    def test_equality_and_hash(self):
        assert BitVector([1, 0]) == BitVector([1, 0])
        assert BitVector([1, 0]) != BitVector([0, 1])
        assert hash(BitVector([1, 0])) == hash(BitVector([1, 0]))

    def test_as_bits_accepts_sequences(self):
        assert np.array_equal(as_bits([1, 0, 1]), np.array([1, 0, 1], dtype=np.uint8))

    @pytest.mark.parametrize(
        "bad",
        [[0.5, 1.7], np.array([0.9, 0.2]), [256], [-1], [2], _read_only([0, 2])],
        ids=["floats", "float-array", "256", "minus-one", "two", "read-only-uint8"],
    )
    def test_as_bits_validates_before_casting(self, bad):
        # a uint8 cast first would truncate 0.5 to 0 and wrap 256 to 0; the
        # no-copy path for read-only uint8 arrays still checks the values
        with pytest.raises(ValueError):
            as_bits(bad)

    @pytest.mark.parametrize(
        "good",
        [[True, False], np.array([True, False]), [1.0, 0.0]],
        ids=["bools", "bool-array", "whole-floats"],
    )
    def test_as_bits_accepts_exact_bits_of_any_dtype(self, good):
        out = as_bits(good)
        assert out.dtype == np.uint8
        assert np.array_equal(out, np.array([1, 0], dtype=np.uint8))

    def test_as_bits_returns_its_own_output_uncopied(self):
        a = as_bits([1, 0, 1])
        assert as_bits(a) is a

    def test_as_bits_copies_arrays_others_can_write(self):
        writable = np.array([1, 0, 1], dtype=np.uint8)
        out = as_bits(writable)
        writable[0] = 0
        assert list(out) == [1, 0, 1]
        assert not out.flags.writeable
        # a read-only view of writable memory is copied too
        view = writable.view()
        view.setflags(write=False)
        out = as_bits(view)
        assert out is not view
        writable[1] = 1
        assert list(out) == [0, 0, 1]


class TestSum:
    def test_all_zero(self):
        assert sum_bits(BitVector.zeros(8)) == 0

    def test_all_one(self):
        assert sum_bits(BitVector.ones(5)) == 5

    def test_direct_count(self):
        assert sum_bits([1, 0, 1, 1, 0]) == 3

    @given(bit_lists)
    def test_bounded_by_length(self, bits):
        assert 0 <= sum_bits(bits) <= len(bits)


class TestGapThreshold:
    def test_zero_sum(self):
        assert gap_threshold(BitVector.zeros(10), GapParams(0, 5)) is GapValue.ZERO

    def test_above_gap(self):
        x = [1] * 7 + [0] * 3
        assert gap_threshold(x, GapParams(0, 5)) is GapValue.ONE

    def test_promise_violation_is_a_value(self):
        x = [1, 1, 1] + [0] * 7
        assert gap_threshold(x, GapParams(0, 5)) is GapValue.UNDEFINED
        with pytest.raises(ValueError):
            gap_threshold(x, GapParams(0, 5)).bit

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GapParams(-1, 5)
        with pytest.raises(ValueError):
            GapParams(0, 0)

    @given(bit_lists, st.integers(0, 8), st.integers(1, 8))
    def test_agrees_with_sign_test(self, bits, kappa, tau):
        value = gap_threshold(bits, GapParams(kappa, tau))
        s = sum(bits)
        if value is GapValue.ZERO:
            assert s <= kappa
        elif value is GapValue.ONE:
            assert s >= kappa + tau
        else:
            assert kappa < s < kappa + tau


class TestMinWindowWeight:
    def test_all_zero(self):
        assert min_window_weight(BitVector.zeros(10), 4) == 0

    def test_all_one(self):
        assert min_window_weight(BitVector.ones(10), 4) == 4

    def test_brute_force_example(self):
        x = [1, 1, 0, 0, 0, 1, 1, 1]
        assert naive_min_window(x, 3) == 0
        assert min_window_weight(x, 3) == 0

    def test_window_too_large(self):
        with pytest.raises(ValueError):
            min_window_weight([1, 0], 3)
        with pytest.raises(ValueError):
            min_window_weight([1, 0], 0)

    def test_exhaustive_short_lengths_all_windows(self):
        for n in range(1, 10):
            for code in range(1 << n):
                bits = [(code >> i) & 1 for i in range(n)]
                for window in range(1, n + 1):
                    assert min_window_weight(bits, window) == naive_min_window(bits, window)

    def test_exhaustive_16_bits(self):
        # all 65536 inputs of length 16, against direct slice recomputation
        n, window = 16, 8
        codes = np.arange(1 << n, dtype=np.uint32)
        bits = ((codes[:, None] >> np.arange(n)[None, :]) & 1).astype(np.uint8)
        naive = np.min(
            np.stack(
                [bits[:, i : i + window].sum(axis=1) for i in range(n - window + 1)],
                axis=1,
            ),
            axis=1,
        )
        fast = np.array([min_window_weight(row, window) for row in bits])
        assert np.array_equal(fast, naive)

    @given(bit_lists, st.data())
    @settings(max_examples=200)
    def test_matches_naive_recomputation(self, bits, data):
        window = data.draw(st.integers(1, len(bits)))
        assert min_window_weight(bits, window) == naive_min_window(bits, window)


class TestMinWindowWeightGridded:
    def test_all_zero(self):
        assert min_window_weight_gridded(BitVector.zeros(12), 4, 2) == 0

    def test_all_one(self):
        assert min_window_weight_gridded(BitVector.ones(12), 4, 2) == 4

    def test_divisibility_errors(self):
        with pytest.raises(ValueError):
            min_window_weight_gridded([0] * 10, 4, 3)  # 3 does not divide 10
        with pytest.raises(ValueError):
            min_window_weight_gridded([0] * 12, 5, 2)  # 2 does not divide 5

    def test_exhaustive_16_bit_sandwich(self):
        # gridded >= full minimum, and exceeds it by at most interval-1
        n, window, interval = 16, 4, 2
        codes = np.arange(1 << n, dtype=np.uint32)
        bits = ((codes[:, None] >> np.arange(n)[None, :]) & 1).astype(np.int64)
        csum = np.cumsum(bits, axis=1)
        wsums = csum[:, window - 1 :].copy()
        wsums[:, 1:] -= csum[:, : n - window]
        full = wsums.min(axis=1)
        grid = wsums[:, ::interval].min(axis=1)
        assert np.all(grid >= full)
        assert np.all(grid <= full + (interval - 1))

    def test_equals_full_when_interval_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            bits = (rng.random(16) < 0.5).astype(np.uint8)
            assert min_window_weight_gridded(bits, 4, 1) == min_window_weight(bits, 4)

    @given(st.integers(0, 2**16 - 1), st.sampled_from([(4, 2), (8, 2), (8, 4), (4, 1)]))
    def test_matches_naive_gridded(self, code, sizes):
        window, interval = sizes
        bits = [(code >> i) & 1 for i in range(16)]
        assert min_window_weight_gridded(bits, window, interval) == naive_min_window_gridded(
            bits, window, interval
        )


class TestIsNeighbor:
    def test_single_difference(self):
        assert is_neighbor([0, 0, 0], [0, 1, 0])

    def test_zero_difference(self):
        assert not is_neighbor([0, 0, 0], [0, 0, 0])

    def test_two_differences(self):
        assert not is_neighbor([0, 0, 0], [1, 1, 0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            is_neighbor([0, 0], [0, 0, 0])

    def test_index_constraint(self):
        assert is_neighbor([0, 0, 0], [0, 1, 0], NeighborSpec(index=1))
        assert not is_neighbor([0, 0, 0], [0, 1, 0], NeighborSpec(index=2))

    def test_excluded_constraint(self):
        spec = NeighborSpec(excluded=frozenset({1}))
        assert not is_neighbor([0, 0, 0], [0, 1, 0], spec)
        assert is_neighbor([0, 0, 0], [0, 0, 1], spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NeighborSpec(index=1, excluded=frozenset({1}))

    @given(bit_lists, st.data())
    def test_flip_one_bit_is_neighbor(self, bits, data):
        i = data.draw(st.integers(0, len(bits) - 1))
        other = list(bits)
        other[i] ^= 1
        assert is_neighbor(bits, other)
        assert is_neighbor(bits, other, NeighborSpec(index=i))


class TestApproxSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ApproxSpec(gamma=1.5, tau=1.0)
        with pytest.raises(ValueError):
            ApproxSpec(gamma=0.5, tau=-1.0)

    def test_satisfied_by(self):
        spec = ApproxSpec(gamma=0.5, tau=2.0)
        assert spec.satisfied_by(np.array([0.0, 1.0, 3.0, 1.5]))
        assert not spec.satisfied_by(np.array([3.0, 4.0, 5.0, 1.0]))
