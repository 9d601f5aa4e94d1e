import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpdist.core import (
    GapParams,
    _window_sums,
    as_bits,
    min_window_weight,
    min_window_weight_gridded,
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


class TestAsBits:
    @pytest.mark.parametrize(
        "bad",
        [[[0, 1], [1, 0]], _read_only([[0, 1], [1, 0]]), np.array(1), [[1]], np.zeros((0, 2))],
        ids=["nested-list", "read-only-uint8-2d", "0-d-array", "1x1", "empty-2d"],
    )
    def test_rejects_other_than_one_dimension(self, bad):
        with pytest.raises(ValueError, match="one-dimensional"):
            as_bits(bad)

    @pytest.mark.parametrize(
        "make",
        [lambda: (b for b in [1, 0, 1]), lambda: iter([1, 0, 1]), lambda: map(int, "101")],
        ids=["generator", "iterator", "map"],
    )
    def test_accepts_inputs_without_len(self, make):
        out = as_bits(make())
        assert out.dtype == np.uint8 and out.tolist() == [1, 0, 1]

    def test_rejects_non_bits_without_len(self):
        with pytest.raises(ValueError, match="0 or 1"):
            as_bits(b for b in [0, 2, 1])

    @pytest.mark.parametrize(
        "x",
        [
            [1, 0],
            (1, 0),
            range(1, -1, -1),
            np.array([1, 0]),
            np.array([1, 0], dtype=np.uint8),
            np.array([True, False]),
        ],
        ids=["list", "tuple", "range", "int-array", "uint8-array", "bool-array"],
    )
    def test_result_is_read_only_uint8(self, x):
        out = as_bits(x)
        assert out.dtype == np.uint8 and out.ndim == 1 and out.flags.owndata
        with pytest.raises(ValueError):
            out[0] = 0

    @given(bit_lists)
    def test_round_trips_bit_lists(self, bits):
        out = as_bits(bits)
        assert out.tolist() == bits
        assert as_bits(out) is out
        assert as_bits(np.array(bits, dtype=bool)).tolist() == bits

    def test_empty_input(self):
        out = as_bits([])
        assert out.dtype == np.uint8 and out.shape == (0,) and not out.flags.writeable

    def test_as_bits_accepts_sequences(self):
        assert np.array_equal(as_bits([1, 0, 1]), np.array([1, 0, 1], dtype=np.uint8))

    @pytest.mark.parametrize(
        "bad",
        [
            [0.5, 1.7],
            np.array([0.9, 0.2]),
            [float("nan"), 1.0],
            ["a"],
            np.array([1, None], dtype=object),
            [256],
            [-1],
            [2],
            np.array([0, 2]),
            np.array([-1, 1], dtype=np.int8),
            np.array([1, 256], dtype=np.uint16),
            [2**70, 1],
            _read_only([0, 2]),
        ],
        ids=[
            "floats",
            "float-array",
            "nan",
            "string",
            "object-none",
            "256",
            "minus-one",
            "two",
            "int64-two",
            "int8-minus-one",
            "uint16-256",
            "big-int",
            "read-only-uint8",
        ],
    )
    def test_as_bits_validates_before_casting(self, bad):
        # a uint8 cast first would truncate 0.5 to 0 and wrap 256 to 0; the
        # no-copy path for read-only uint8 arrays still checks the values
        with pytest.raises(ValueError):
            as_bits(bad)

    @pytest.mark.parametrize(
        "good",
        [
            [True, False],
            np.array([True, False]),
            [True, 0],
            [1.0, 0.0],
            np.array([1, 0], dtype=np.uint16),
            np.array([1, 0], dtype=np.int8),
            np.array([1, 0], dtype=object),
        ],
        ids=["bools", "bool-array", "bool-and-int", "whole-floats", "uint16", "int8", "object"],
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


class TestGapParams:
    def test_param_validation(self):
        with pytest.raises(ValueError):
            GapParams(-1, 5)
        with pytest.raises(ValueError):
            GapParams(0, 0)

    def test_smallest_valid_params(self):
        p = GapParams(0, 1)
        assert (p.kappa, p.tau) == (0, 1)


class TestMinWindowWeight:
    def test_all_zero(self):
        assert min_window_weight(np.zeros(10, dtype=np.uint8), 4) == 0

    def test_all_one(self):
        assert min_window_weight(np.ones(10, dtype=np.uint8), 4) == 4

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


    def test_window_sums_on_last_axis_match_rows(self):
        n = 10
        codes = np.arange(1 << n, dtype=np.uint32)
        rows = ((codes[:, None] >> np.arange(n)[None, :]) & 1).astype(np.uint8)
        for window in range(1, n + 1):
            sums = _window_sums(rows, window)
            assert sums.dtype == np.int64 and sums.shape == (1 << n, n - window + 1)
            for row, got in zip(rows, sums):
                one = _window_sums(row, window)
                assert one.dtype == np.int64 and np.array_equal(got, one)


class TestMinWindowWeightGridded:
    def test_all_zero(self):
        assert min_window_weight_gridded(np.zeros(12, dtype=np.uint8), 4, 2) == 0

    def test_all_one(self):
        assert min_window_weight_gridded(np.ones(12, dtype=np.uint8), 4, 2) == 4

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
