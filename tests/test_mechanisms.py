import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpdist.audit import SparseBernoulli, hoeffding_bound
from dpdist.local_model import randomized_response_sum, rr_estimate_batch
from dpdist.mechanisms import (
    FlipParams,
    LaplaceParams,
    SensitivitySpec,
    flip,
    flip_bias_for,
    flip_output_prob,
    laplace_mechanism,
    sample_laplace,
)
from dpdist.seeding import derive_rng


def brute_force_global_sensitivity(f, n):
    """Independent oracle: max |f(x)-f(y)| over all neighboring pairs."""
    worst = 0
    for code in range(1 << n):
        bits = [(code >> i) & 1 for i in range(n)]
        for i in range(n):
            other = list(bits)
            other[i] ^= 1
            worst = max(worst, abs(f(bits) - f(other)))
    return worst


class TestParams:
    def test_laplace_params(self):
        with pytest.raises(ValueError):
            LaplaceParams(0.0)

    def test_flip_params(self):
        with pytest.raises(ValueError):
            FlipParams(0.0)
        with pytest.raises(ValueError):
            FlipParams(0.5)

    @pytest.mark.parametrize("gs", [-1.0, 0.0, math.nan, math.inf])
    def test_sensitivity(self, gs):
        with pytest.raises(ValueError, match="finite and positive"):
            SensitivitySpec(gs)


class TestLaplace:
    def test_tail_probability(self):
        rng = derive_rng(11)
        y = sample_laplace(LaplaceParams(1.0), rng, size=1_000_000)
        assert abs(np.mean(np.abs(y) > 1.0) - math.exp(-1)) < 0.002

    def test_mean(self):
        rng = derive_rng(12)
        y = sample_laplace(LaplaceParams(1.0), rng, size=1_000_000)
        assert abs(np.mean(y)) < 0.005

    def test_variance(self):
        rng = derive_rng(13)
        y = sample_laplace(LaplaceParams(2.0), rng, size=1_000_000)
        assert abs(np.var(y) - 8.0) < 0.1

    def test_tails_k123(self):
        rng = derive_rng(14)
        y = np.abs(sample_laplace(LaplaceParams(1.0), rng, size=1_000_000))
        for k in (1, 2, 3):
            assert abs(np.mean(y > k) - math.exp(-k)) < 0.003

    def test_scalar_draw(self):
        assert isinstance(sample_laplace(LaplaceParams(1.0), derive_rng(0)), float)


class TestFlip:
    def test_bias_formula(self):
        assert flip_bias_for(1.0).flip_bias == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert flip_bias_for(2.0).flip_bias == pytest.approx(0.25, rel=1e-15)

    def test_bias_small_eps_limit(self):
        assert flip_bias_for(1e-9).flip_bias < 1e-9

    def test_bias_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            flip_bias_for(0.0)
        with pytest.raises(ValueError):
            flip_bias_for(-1.0)

    def test_keep_frequency(self):
        p = FlipParams(1.0 / 6.0)
        rng = derive_rng(17)
        z = flip(np.ones(1_000_000, dtype=np.uint8), p, rng)
        assert abs(np.mean(z) - 2.0 / 3.0) < 0.002

    def test_exact_ratio_is_one_plus_eps(self):
        for eps in (0.1, 0.5, 1.0, 2.0):
            p = flip_bias_for(eps)
            ratio = flip_output_prob(1, 1, p) / flip_output_prob(0, 1, p)
            assert ratio == pytest.approx(1.0 + eps, rel=1e-12)

    def test_high_bias_keeps_input(self):
        p = FlipParams(0.4999)
        rng = derive_rng(18)
        z = flip(np.ones(100_000, dtype=np.uint8), p, rng)
        assert np.mean(z) > 0.999

    def test_output_prob_values(self):
        p = FlipParams(1.0 / 6.0)
        assert flip_output_prob(1, 1, p) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert flip_output_prob(1, 0, p) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert flip_output_prob(0, 0, FlipParams(0.25)) == 0.75

    def test_output_prob_validation(self):
        with pytest.raises(ValueError):
            flip_output_prob(2, 0, FlipParams(0.1))

    @given(st.floats(min_value=0.01, max_value=0.49))
    def test_output_prob_sums_to_one(self, bias):
        p = FlipParams(bias)
        for x in (0, 1):
            assert flip_output_prob(x, 0, p) + flip_output_prob(x, 1, p) == pytest.approx(1.0)

    def test_empirical_matches_oracle_within_3_se(self):
        p = flip_bias_for(0.5)
        rng = derive_rng(19)
        trials = 1_000_000
        for x in (0, 1):
            z = flip(np.full(trials, x, dtype=np.uint8), p, rng)
            q = flip_output_prob(x, 1, p)
            se = math.sqrt(q * (1 - q) / trials)
            assert abs(np.mean(z) - q) < 3 * se

    def test_scalar_flip(self):
        assert flip(1, FlipParams(0.4999), derive_rng(0)) in (0, 1)


class TestFlipMatchesWhereOracle:
    """The array path equals ``np.where(keep, x, 1 - x)`` on the same ``keep`` draws."""

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([(0,), (1,), (7,), (1000,), (0, 4), (3, 5)]),
        st.sampled_from([np.uint8, np.bool_, np.int64, np.float64]),
        st.floats(min_value=0.01, max_value=0.49),
    )
    def test_draw_for_draw(self, seed, shape, dtype, bias):
        p = FlipParams(bias)
        x = (derive_rng(seed).random(shape) < 0.5).astype(dtype)
        rng, twin = derive_rng(seed, 1), derive_rng(seed, 1)
        got = flip(x, p, rng)
        keep = twin.random(shape) < p.keep_prob
        assert got.dtype == np.uint8 and got.shape == shape
        np.testing.assert_array_equal(got, np.where(keep, x, 1 - x))
        assert rng.random() == twin.random()  # the same number of draws

    @pytest.mark.parametrize(
        "x",
        [
            np.array([0, 2], dtype=np.uint8),
            np.array([[1, 0], [255, 1]], dtype=np.uint8),
            np.array([0, -1]),
            np.array([1, 2]),
            np.array([1.0, 0.5]),
            np.array([np.nan]),
        ],
    )
    def test_non_bits_raise_before_drawing(self, x):
        rng, twin = derive_rng(4), derive_rng(4)
        with pytest.raises(ValueError, match="0 or 1"):
            flip(x, FlipParams(0.2), rng)
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("x", [2, -1, 0.5, float("nan"), np.uint8(2), np.array(3), "1"])
    def test_non_bit_scalars_raise_before_drawing(self, x):
        # 1 - x used to turn 2 into 2 or -1, and 0.5 into 0
        rng, twin = derive_rng(5), derive_rng(5)
        with pytest.raises(ValueError, match="0 or 1"):
            flip(x, FlipParams(0.2), rng)
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("x", [0, 1, np.uint8(1), np.int64(0)])
    def test_scalar_is_a_length_one_array(self, x):
        p = FlipParams(0.2)
        rng, twin = derive_rng(9), derive_rng(9)
        out = flip(x, p, rng)
        assert type(out) is np.uint8
        assert out == flip(np.array([x]), p, twin)[0]
        assert rng.random() == twin.random()  # one draw on both sides


class TestLaplaceMechanism:
    def test_tail_as_approximation(self):
        rng = derive_rng(20)
        err = laplace_mechanism(0.0, SensitivitySpec(1.0), 1.0, rng, size=1_000_000)
        assert abs(np.mean(np.abs(err) > 3.0) - math.exp(-3)) < 0.01

    def test_variance_is_twice_squared_sensitivity_over_eps(self):
        rng = derive_rng(24)
        err = laplace_mechanism(0.0, SensitivitySpec(2.0), 0.5, rng, size=1_000_000)
        assert abs(np.var(err) - 32.0) / 32.0 < 0.02

    def test_summed_submissions_err_with_variance_2n_over_eps_squared(self):
        # each party submits its bit plus Laplace(1/eps) noise; the curator sums
        n, eps, trials = 400, 1.0, 20_000
        x = np.zeros(n)
        x[:100] = 1.0
        rng = derive_rng(26)
        submissions = laplace_mechanism(x, SensitivitySpec(1.0), eps, rng, size=(trials, n))
        errs = submissions.sum(axis=1) - 100.0
        assert abs(np.var(errs) - 2 * n / eps**2) / (2 * n / eps**2) < 0.05

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            laplace_mechanism(0.0, SensitivitySpec(1.0), 0.0, derive_rng(0))

    def test_sum_has_unit_sensitivity(self):
        assert brute_force_global_sensitivity(lambda bits: sum(bits), 6) == 1
        assert brute_force_global_sensitivity(lambda bits: int(np.count_nonzero(bits)), 4) == 1


# Every call that takes a privacy loss (or a flip bias, Laplace scale,
# round budget d or Hoeffding threshold nu): the values it must reject, and
# what its error must say (None: any ValueError).
_NAN, _INF = math.nan, math.inf
_LAPLACE_BAD = [_NAN, 0.0, -1.0, _INF]
_BAD_PARAMETER_CALLS = {
    "flip_bias_for": (lambda v, rng: flip_bias_for(v), [_NAN, 0.0, -1.0], "eps must"),
    "SparseBernoulli": (
        lambda v, rng: SparseBernoulli(n=10_000, eps=v, d=4.0),
        [_NAN, 0.0, -1.0],
        "eps must",
    ),
    "SparseBernoulli.d": (
        lambda v, rng: SparseBernoulli(n=10_000, eps=1.0, d=v),
        [_NAN, _INF, -_INF, 0.0, -1.0],
        "d must exceed 1",
    ),
    "hoeffding_bound.nu": (lambda v, rng: hoeffding_bound(v, 4.0), [_NAN, -_INF, 0.0, -1.0], "nu must"),
    "hoeffding_bound.d": (lambda v, rng: hoeffding_bound(64.0, v), [_NAN, _INF, -_INF, 0.0, -1.0], "d must"),
    "FlipParams": (lambda v, rng: FlipParams(v), [_NAN, 0.0, -1.0, 0.5], "flip_bias must"),
    "randomized_response_sum": (
        lambda v, rng: randomized_response_sum([1, 0, 1, 1], v, rng),
        [_NAN, 0.0, -1.0],
        "eps must",
    ),
    "rr_estimate_batch": (
        lambda v, rng: rr_estimate_batch([1, 0, 1, 1], v, 5, rng),
        [_NAN, 0.0, -1.0],
        "eps must",
    ),
    "LaplaceParams": (lambda v, rng: LaplaceParams(v), _LAPLACE_BAD, "scale must"),
    "laplace_mechanism": (
        lambda v, rng: laplace_mechanism(0.0, SensitivitySpec(1.0), v, rng, size=3),
        _LAPLACE_BAD,
        None,
    ),
}


class TestBadParametersRaise:
    """NaN, zero, negative (and, where noise is drawn, infinite) values raise before any draw."""

    @pytest.mark.parametrize(
        "name,value",
        [(name, v) for name, (_, bad, _) in _BAD_PARAMETER_CALLS.items() for v in bad],
    )
    def test_raises_and_leaves_generator_untouched(self, name, value):
        call, _, message = _BAD_PARAMETER_CALLS[name]
        rng = derive_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=message):
            call(value, rng)
        assert rng.bit_generator.state == before
