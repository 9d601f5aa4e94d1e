import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpdist.audit import (
    SparseBernoulli,
    chernoff_tail_check,
    definition_equivalence_check,
    distinguisher_experiment,
    exact_epsilon,
    flip_panel,
    hoeffding_bound,
    hoeffding_tail_check,
    likelihood_ratios,
    privacy_loss,
    round_budget,
    sample_sparse,
    sample_sparse_sums,
    view_probability_transfer,
)
from dpdist.core import GapParams
from dpdist.local_model import (
    CuratorView,
    SanitizerSpec,
    constant_sanitizer,
    enumerate_noninteractive,
    flip_sanitizer,
    randomized_response_sum,
    sum_to_gap,
)
from dpdist.mechanisms import flip, flip_bias_for, flip_output_prob
from dpdist.seeding import derive_rng


def identity_sanitizer():
    """Sends the input bit in the clear (infinite privacy loss)."""
    return SanitizerSpec(
        alphabet=(0, 1),
        output_prob=lambda x, c: 1.0 if c == x else 0.0,
    )


def mixture_view_probability(sanitizers, c, density):
    """Independent oracle: P[view=c] under planted inputs, by summing over
    all 2^n input vectors weighted by the planted density."""
    n = len(sanitizers)
    total = 0.0
    for bits in itertools.product((0, 1), repeat=n):
        w = 1.0
        for b in bits:
            w *= density if b else (1.0 - density)
        for s, b, sym in zip(sanitizers, bits, c):
            w *= s.output_prob(b, sym)
        total += w
    return total


class TestSparseBernoulli:
    def test_density_formula(self):
        p = SparseBernoulli(n=10_000, eps=1.0, d=4.0)
        assert p.density == pytest.approx(0.005, rel=1e-12)
        assert p.expected_sum == pytest.approx(50.0, rel=1e-12)

    def test_density_monotone_in_d(self):
        # budgeting more rounds thins the planted ones and tightens the
        # hard ratio bound proportionally
        p4 = SparseBernoulli(n=10_000, eps=1.0, d=4.0)
        p16 = SparseBernoulli(n=10_000, eps=1.0, d=16.0)
        assert p16.density == pytest.approx(p4.density / 2, rel=1e-12)
        assert 4 * p16.density * p16.eps < 4 * p4.density * p4.eps

    def test_round_budget(self):
        d1, nu1 = round_budget(1)
        assert d1 == pytest.approx(16 * math.log(3), rel=1e-12)
        assert nu1 == pytest.approx(32 + math.sqrt(32 * d1 * math.log(20)), rel=1e-12)
        d4, nu4 = round_budget(4)
        assert d4 == pytest.approx(16 * 16 * math.log(6), rel=1e-12)
        assert nu4 == pytest.approx(32 + math.sqrt(32 * d4 * math.log(80)), rel=1e-12)
        assert d4 > d1 and nu4 > nu1
        with pytest.raises(ValueError):
            round_budget(0)

    @pytest.mark.parametrize("ell", [1, 2, 4, 8])
    def test_round_budget_transfer_bound_is_beta(self, ell):
        # the old nu, 16 ell ln(ell+2), gave bounds of 1.39, 2.51 and 3.20
        # at ell = 2, 4, 8: no bound at all
        d, nu = round_budget(ell)
        check = view_probability_transfer(np.zeros(1), nu, d, ell=ell)
        assert check.bound == pytest.approx(0.05, rel=0, abs=1e-12)

    @pytest.mark.parametrize("ell", [math.nan, math.inf, 1.5])
    def test_round_budget_rejects_non_finite(self, ell):
        with pytest.raises(ValueError, match="finite") as caught:
            round_budget(ell)  # NaN used to give (4.0, 64.0), and 1.5 (45.10, 102.06)
        with pytest.raises(ValueError) as transfer:
            view_probability_transfer(np.zeros(1), 64.0, 4.0, ell=ell)
        assert str(caught.value) == str(transfer.value)

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseBernoulli(n=10_000, eps=1.0, d=1.0)
        with pytest.raises(ValueError):
            SparseBernoulli(n=1, eps=0.5, d=1.5)

    @pytest.mark.parametrize("n", [10_000.5, 10_000.0, "10000"], ids=["fraction", "float", "text"])
    def test_n_that_is_not_an_integer_raises(self, n):
        # the density would use 10000.5 while the binomial draws truncate to 10000
        with pytest.raises(TypeError):
            SparseBernoulli(n=n, eps=1.0, d=4.0)

    @pytest.mark.parametrize("n", [np.int64(10_000), np.uint16(10_000)], ids=["int64", "uint16"])
    def test_n_of_any_integer_type_accepted(self, n):
        p = SparseBernoulli(n=n, eps=1.0, d=4.0)
        assert type(p.n) is int and p == SparseBernoulli(n=10_000, eps=1.0, d=4.0)

    def test_sampled_mean(self):
        p = SparseBernoulli(n=10_000, eps=1.0, d=4.0)
        rng = derive_rng(61)
        sums = np.array([sample_sparse(p, rng).sum() for _ in range(2_000)])
        se = math.sqrt(p.n * p.density * (1 - p.density) / 2_000)
        assert abs(sums.mean() - p.expected_sum) < 3 * se

    def test_direct_sum_sampler_matches_moments(self):
        p = SparseBernoulli(n=400, eps=1.0, d=4.0)
        rng = derive_rng(62)
        sums = sample_sparse_sums(p, 200_000, rng)
        mean, var = p.expected_sum, p.n * p.density * (1 - p.density)
        assert abs(sums.mean() - mean) < 3 * math.sqrt(var / 200_000)
        assert abs(sums.var() - var) / var < 0.05

    def test_chernoff_lower_tail(self):
        p = SparseBernoulli(n=10_000, eps=1.0, d=4.0)
        rng = derive_rng(63)
        sums = sample_sparse_sums(p, 100_000, rng)
        check = chernoff_tail_check(sums, p, gamma=0.5)
        assert check.passed
        assert check.bound == pytest.approx(math.exp(-6.25), rel=1e-12)


def _privacy_loss_loop(p, q):
    """Reference: ln(p/q) key by key over p's keys then q's others, both-zero keys skipped."""
    out = {}
    for k in list(p) + [k for k in q if k not in p]:
        pk, qk = p.get(k, 0.0), q.get(k, 0.0)
        if pk == 0.0 and qk == 0.0:
            continue
        out[k] = math.inf if qk == 0.0 else -math.inf if pk == 0.0 else math.log(pk / qk)
    return out


_LAW = st.dictionaries(
    st.integers(0, 6), st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 5e-324, 0.1, 1 / 3])), max_size=5
)


class TestPrivacyLoss:
    @given(_LAW, _LAW)
    def test_matches_the_loop_bit_for_bit(self, p, q):
        assert list(privacy_loss(p, q).items()) == list(_privacy_loss_loop(p, q).items())

    def test_one_sided_zero_and_empty_keys(self):
        loss = privacy_loss({"a": 0.5, "b": 0.5, "z": 0.0}, {"c": 0.25, "b": 0.25, "a": 0.0, "y": 0.0, "z": 0.5})
        assert loss == {"a": math.inf, "b": math.log(2.0), "z": -math.inf, "c": -math.inf}
        assert list(loss) == ["a", "b", "z", "c"]
        assert privacy_loss({}, {}) == {} and privacy_loss({0: 0.0}, {}) == {}


class TestExactEpsilon:
    def test_flip_at_eps_one(self):
        s = flip_sanitizer(flip_bias_for(1.0))
        assert exact_epsilon(s) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_identity_is_infinite(self):
        assert exact_epsilon(identity_sanitizer()) == math.inf

    def test_constant_is_zero(self):
        assert exact_epsilon(constant_sanitizer(0)) == 0.0

    def test_matches_closed_form_on_grid(self):
        for eps in (0.1, 0.25, 0.5, 1.0):
            s = flip_sanitizer(flip_bias_for(eps))
            assert exact_epsilon(s) == pytest.approx(math.log1p(eps), rel=1e-12)

    def test_constant_and_identity_extremes(self):
        assert exact_epsilon(constant_sanitizer(1)) == 0.0
        assert exact_epsilon(identity_sanitizer()) == math.inf

    @pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 1.0])
    def test_bits_are_the_one_over_zero_ratio(self, eps):
        params = flip_bias_for(eps)
        ratios = [flip_output_prob(1, c, params) / flip_output_prob(0, c, params) for c in (0, 1)]
        assert exact_epsilon(flip_sanitizer(params)) == max(abs(math.log(r)) for r in ratios)

    def test_the_larger_of_two_directions_moves_the_last_bit(self):
        # ln(p1/p0) and ln(p0/p1) round apart at eps = 0.1, so folding the
        # loss as the larger direction would change pinned output bytes
        params = flip_bias_for(0.1)
        spec = flip_sanitizer(params)
        p0, p1 = spec.distribution(0), spec.distribution(1)
        both_ways = max(max(math.log(p1[c] / p0[c]), math.log(p0[c] / p1[c])) for c in (0, 1))
        assert exact_epsilon(spec) == 0.09531017980432502
        assert both_ways == 0.09531017980432493


class TestLikelihoodRatios:
    def test_uninformative_sanitizer(self):
        p = SparseBernoulli(n=2, eps=1.0, d=9.0)
        view = CuratorView(answers=((0, 0),))
        stats = likelihood_ratios([constant_sanitizer(0)] * 2, view, p)
        assert np.allclose(stats.per_party_ratios, 1.0)
        assert np.allclose(stats.log_ratios, 0.0)
        assert stats.total_ratio == pytest.approx(1.0)

    def test_flip_ratio_direct_substitution(self):
        # density 0.005, eps 1: report 1 has ratio
        # (0.005*(2/3) + 0.995*(1/3)) / (1/3) = 1.005
        p = SparseBernoulli(n=10_000, eps=1.0, d=4.0)
        s = flip_sanitizer(flip_bias_for(1.0))
        view = CuratorView(answers=((1,) + (0,) * 9_999,))
        stats = likelihood_ratios([s] * p.n, view, p)
        assert stats.per_party_ratios[0] == pytest.approx(1.005, rel=1e-12)
        oracle = mixture_view_probability([s], (1,), p.density) / s.output_prob(0, 1)
        assert stats.per_party_ratios[0] == pytest.approx(oracle, rel=1e-12)

    def test_hard_range_for_private_sanitizers(self):
        # any sanitizer with worst-case ratio at most e^(2 eps) keeps its
        # per-report ratio inside [1 - 2 a eps, 1 + 4 a eps]
        p = SparseBernoulli(n=100, eps=1.0, d=4.0)
        a = p.density
        s = flip_sanitizer(flip_bias_for(1.0))
        assert exact_epsilon(s) <= 2 * p.eps
        for sym in (0, 1):
            r = (a * s.output_prob(1, sym) + (1 - a) * s.output_prob(0, sym)) / s.output_prob(
                0, sym
            )
            assert 1 - 2 * a * p.eps <= r <= 1 + 4 * a * p.eps

    def test_product_form_matches_brute_force(self):
        # total ratio as a product equals the exhaustively mixed view
        # probability ratio, on every view of small heterogeneous panels
        for sanitizers in [
            [flip_sanitizer(flip_bias_for(1.0))] * 2,
            [flip_sanitizer(flip_bias_for(0.5)), flip_sanitizer(flip_bias_for(1.0))],
            [flip_sanitizer(flip_bias_for(0.3))] * 4,
        ]:
            n = len(sanitizers)
            p = SparseBernoulli(n=n, eps=1.0, d=16.0 / n)
            zero_dist = enumerate_noninteractive(sanitizers, [0] * n)
            for c in itertools.product((0, 1), repeat=n):
                view = CuratorView(answers=(c,))
                stats = likelihood_ratios(sanitizers, view, p)
                brute = mixture_view_probability(sanitizers, c, p.density) / zero_dist[c]
                assert stats.total_ratio == pytest.approx(brute, rel=1e-12)

    def test_infinite_ratio_flagged(self):
        p = SparseBernoulli(n=1, eps=1.0, d=9.0)
        view = CuratorView(answers=((1,),))
        stats = likelihood_ratios([identity_sanitizer()], view, p)
        assert stats.infinite
        assert math.isinf(stats.total_ratio)

    def test_two_round_chain_rule(self):
        p = SparseBernoulli(n=1, eps=1.0, d=9.0)
        s = flip_sanitizer(flip_bias_for(1.0))
        view = CuratorView(answers=((1,), (0,)))
        stats = likelihood_ratios([s], view, p)
        a = p.density
        alpha1 = s.output_prob(1, 1) * s.output_prob(1, 0)
        alpha0 = s.output_prob(0, 1) * s.output_prob(0, 0)
        expected = (a * alpha1 + (1 - a) * alpha0) / alpha0
        assert stats.per_party_ratios[0] == pytest.approx(expected, rel=1e-12)


class TestVStatistics:
    def _sample_stats(self, n, eps, d, trials, seed):
        p = SparseBernoulli(n=n, eps=eps, d=d)
        params = flip_bias_for(eps)
        sanitizers = [flip_sanitizer(params)] * n
        rng = derive_rng(seed)
        stats = []
        for _ in range(trials):
            x = sample_sparse(p, rng)
            view = CuratorView(answers=(flip(x, params, rng),))
            stats.append(likelihood_ratios(sanitizers, view, p))
        return p, stats

    def test_uninformative_all_zero(self):
        p = SparseBernoulli(n=3, eps=1.0, d=4.0)
        views = [CuratorView(answers=((0, 0, 0),))] * 1000
        stats = [likelihood_ratios([constant_sanitizer(0)] * 3, v, p) for v in views]
        logs = np.stack([s.log_ratios for s in stats])
        assert np.abs(logs).max() == 0.0
        assert logs.sum(axis=1).mean() == 0.0

    def test_flip_panel_bounds_hold(self):
        p, stats = self._sample_stats(n=50, eps=1.0, d=4.0, trials=1500, seed=64)
        logs = np.stack([s.log_ratios for s in stats])
        # hard range: every party's log ratio in every view
        assert np.abs(logs).max() <= 4.0 * p.density * p.eps
        # mean bound: each party's mean log ratio, up to three standard errors
        se = logs.std(axis=0, ddof=1) / math.sqrt(len(stats))
        assert np.all(logs.mean(axis=0) <= 32.0 * (p.density * p.eps) ** 2 + 3.0 * se)

    @pytest.mark.parametrize("eps, n", [(0.1, 10_000), (0.5, 2_000), (1.0, 50), (2.0, 400)])
    def test_panel_ratios_are_the_closed_forms(self, eps, n):
        p, flip_params = SparseBernoulli(n=n, eps=eps, d=4.0), flip_bias_for(eps)
        a, keep = p.density, flip_params.keep_prob
        panel = flip_panel(p, flip_params, 10, derive_rng(68))
        assert panel.v_one == math.log((a * keep + (1.0 - a) * (1.0 - keep)) / (1.0 - keep))
        assert panel.v_zero == math.log((a * (1.0 - keep) + (1.0 - a) * keep) / keep)

    def test_vectorized_panel_agrees_with_general_path(self):
        n, eps, d, trials = 50, 1.0, 4.0, 1500
        p, stats = self._sample_stats(n=n, eps=eps, d=d, trials=trials, seed=65)
        flip_params = flip_bias_for(eps)
        panel = flip_panel(p, flip_params, trials, derive_rng(66))
        s = flip_sanitizer(flip_params)
        one_view = CuratorView(answers=((1,) + (0,) * (n - 1),))
        general = likelihood_ratios([s] * n, one_view, p)
        assert panel.v_one == pytest.approx(float(general.log_ratios[0]), rel=1e-12)
        assert panel.v_zero == pytest.approx(float(general.log_ratios[1]), rel=1e-12)
        assert panel.hard_violations == 0

        # both paths estimate the same exact expectation of the view log ratio
        a = p.density
        exact_ev = 0.0
        for sym in (0, 1):
            pa = a * flip_output_prob(1, sym, flip_params) + (1 - a) * flip_output_prob(
                0, sym, flip_params
            )
            ratio = pa / flip_output_prob(0, sym, flip_params)
            exact_ev += pa * math.log(ratio)
        exact_total = n * exact_ev
        general_mean = float(np.mean([st.log_ratios.sum() for st in stats]))
        se = 3 * math.sqrt(2.0 / trials) * abs(exact_total) + 3 * panel.log_total_se()
        assert abs(general_mean - exact_total) < 5 * panel.log_total_se()
        assert abs(panel.mean_log_total() - exact_total) < 5 * panel.log_total_se()


class TestTailChecks:
    def test_hoeffding_bound_value(self):
        assert hoeffding_bound(64, 4) == pytest.approx(math.exp(-8.0), rel=1e-12)
        with pytest.raises(ValueError):
            hoeffding_bound(32, 4)

    def test_uninformative_rate_zero(self):
        check = hoeffding_tail_check(np.zeros(10_000), nu=64, d=4)
        assert check.empirical_rate == 0.0
        assert check.passed

    def test_flip_panel_tail(self):
        p = SparseBernoulli(n=10_000, eps=1.0, d=4.0)
        panel = flip_panel(p, flip_bias_for(1.0), 100_000, derive_rng(67))
        check = hoeffding_tail_check(panel.log_totals, nu=64, d=4)
        assert check.passed

    def test_transfer_single_round_reduces_to_hoeffding(self):
        samples = np.array([0.1, 0.2, 17.0, 0.05])
        one = view_probability_transfer(samples, nu=64, d=4, ell=1)
        base = hoeffding_tail_check(samples, nu=64, d=4)
        assert one.empirical_rate == base.empirical_rate
        assert one.bound == base.bound

    def test_rejects_empty_sample(self):
        p = SparseBernoulli(n=400, eps=1.0, d=4.0)
        with pytest.raises(ValueError, match="at least one sample"):
            hoeffding_tail_check(np.array([]), nu=64, d=4)
        with pytest.raises(ValueError, match="at least one sample"):
            chernoff_tail_check(np.array([]), p, gamma=0.5)

    def test_two_round_transfer(self):
        # two rounds of flips, each round comfortably 2*eps-private; the
        # per-view log ratio uses the exact oracle, vectorized over parties
        n, eps, d, trials = 256, 0.5, 4.0, 3000
        p = SparseBernoulli(n=n, eps=eps, d=d)
        fp = flip_bias_for(1.0)
        assert math.log1p(1.0) <= 2 * eps
        keep = fp.keep_prob
        a = p.density
        rng = derive_rng(68)
        log_totals = np.empty(trials)
        for k in range(trials):
            x = sample_sparse(p, rng)
            z1 = flip(x, fp, rng)
            z2 = flip(x, fp, rng)
            p1 = np.where(z1 == 1, keep, 1 - keep) * np.where(z2 == 1, keep, 1 - keep)
            p0 = np.where(z1 == 0, keep, 1 - keep) * np.where(z2 == 0, keep, 1 - keep)
            log_totals[k] = np.sum(np.log((a * p1 + (1 - a) * p0) / p0))
        check = view_probability_transfer(log_totals, nu=64, d=d, ell=2)
        assert check.passed
        assert check.bound == pytest.approx(2 * hoeffding_bound(64, d), rel=1e-12)

    @pytest.mark.parametrize("ell", [0, math.nan, math.inf, 1.5])
    def test_transfer_rejects_a_round_count_that_is_not_a_positive_integer(self, ell):
        with pytest.raises(ValueError, match="ell must be a finite integer"):
            view_probability_transfer(np.array([0.1, 0.2]), nu=64, d=4, ell=ell)


class TestDistinguisher:
    def test_perfect_oracle_never_errs(self):
        p = SparseBernoulli(n=400, eps=1.0, d=4.0)
        tau = 10.0
        gap = sum_to_gap(lambda x, rng: (float(np.sum(x)), None), GapParams(0, int(tau)))
        report = distinguisher_experiment(gap, p, tau=tau, trials=400, rng=derive_rng(69))
        assert report.error_case_i == 0.0
        assert report.error_case_ii == 0.0

    def test_default_tau_is_half_expected_sum(self):
        p = SparseBernoulli(n=400, eps=1.0, d=4.0)
        gap = sum_to_gap(lambda x, rng: (float(np.sum(x)), None), GapParams(0, 10))
        report = distinguisher_experiment(gap, p, trials=50, rng=derive_rng(70))
        assert report.tau == pytest.approx(p.expected_sum / 2)

    def test_rr_gap_fails_below_sqrt_n(self):
        n, eps = 10_000, 1.0
        p = SparseBernoulli(n=n, eps=eps, d=4.0)
        tau = 0.1 * math.sqrt(n) / eps
        gap = sum_to_gap(
            lambda x, rng: randomized_response_sum(x, eps, rng), GapParams(0, int(tau))
        )
        report = distinguisher_experiment(gap, p, tau=tau, trials=1500, rng=derive_rng(71))
        assert report.max_error >= 0.005

    def test_rr_gap_succeeds_above_sqrt_n(self):
        n, eps = 10_000, 1.0
        p = SparseBernoulli(n=n, eps=eps, d=4.0)
        tau = 10 * math.sqrt(n) / eps
        gap = sum_to_gap(
            lambda x, rng: randomized_response_sum(x, eps, rng), GapParams(0, int(tau))
        )
        report = distinguisher_experiment(gap, p, tau=tau, trials=1500, rng=derive_rng(72))
        assert report.max_error <= 0.01

    def test_dichotomy_at_planted_scale(self):
        # tau at half the planted sum, with the round-scaled budget for a
        # one-round protocol: randomized response cannot separate the
        # planted inputs from zero, so some error rate stays large
        n, eps = 10_000, 1.0
        d, _ = round_budget(1)
        p = SparseBernoulli(n=n, eps=eps, d=d)
        gap = sum_to_gap(
            lambda x, rng: randomized_response_sum(x, eps, rng),
            GapParams(0, max(1, int(p.expected_sum / 2))),
        )
        report = distinguisher_experiment(gap, p, trials=2000, rng=derive_rng(73))
        assert report.max_error >= 0.005

    def test_requires_rng(self):
        p = SparseBernoulli(n=4, eps=1.0, d=9.0)
        with pytest.raises(TypeError, match="rng"):
            distinguisher_experiment(lambda x, rng: 0, p, trials=1)

    def test_rejects_zero_trials(self):
        p = SparseBernoulli(n=4, eps=1.0, d=9.0)
        with pytest.raises(ValueError, match="trials"):
            distinguisher_experiment(lambda x, rng: 0, p, trials=0, rng=derive_rng(0))

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_tau(self, tau):
        # a NaN tau made every sum >= tau false, so an always-0 protocol reported no case-(i) error
        p = SparseBernoulli(n=400, eps=1.0, d=4.0)
        with pytest.raises(ValueError, match="tau must be finite"):
            distinguisher_experiment(lambda x, rng: (0, None), p, tau=tau, trials=200, rng=derive_rng(0))


class TestDefinitionEquivalence:
    def test_two_flips(self):
        report = definition_equivalence_check([flip_sanitizer(flip_bias_for(1.0))] * 2)
        assert report.collective == pytest.approx(math.log(2.0), rel=1e-12)
        assert report.individual == pytest.approx(math.log(2.0), rel=1e-12)
        assert report.passed

    def test_single_party(self):
        report = definition_equivalence_check([flip_sanitizer(flip_bias_for(0.5))])
        assert report.passed

    def test_mixed_epsilons(self):
        sanitizers = [
            flip_sanitizer(flip_bias_for(0.3)),
            flip_sanitizer(flip_bias_for(1.0)),
            constant_sanitizer(0),
        ]
        report = definition_equivalence_check(sanitizers)
        assert report.individual == pytest.approx(math.log1p(1.0), rel=1e-12)
        assert report.passed

    def test_infinite_case(self):
        report = definition_equivalence_check([identity_sanitizer(), constant_sanitizer(0)])
        assert math.isinf(report.collective) and math.isinf(report.individual)
        assert report.passed

    def test_enumerates_each_input_once(self, monkeypatch):
        sanitizers = [
            flip_sanitizer(flip_bias_for(0.3)),
            flip_sanitizer(flip_bias_for(1.0)),
            flip_sanitizer(flip_bias_for(0.7)),
            constant_sanitizer(0),
        ]
        # reference: enumerate x and each neighbour afresh for every pair
        collective = 0.0
        for bits in itertools.product((0, 1), repeat=4):
            dist_x = enumerate_noninteractive(sanitizers, bits)
            for i in range(4):
                y = list(bits)
                y[i] ^= 1
                dist_y = enumerate_noninteractive(sanitizers, y)
                for c, px in dist_x.items():
                    collective = max(collective, math.log(px / dist_y[c]))
        calls = []

        def counted(sanitizers, x):
            calls.append(tuple(x))
            return enumerate_noninteractive(sanitizers, x)

        monkeypatch.setattr("dpdist.audit.enumerate_noninteractive", counted)
        report = definition_equivalence_check(sanitizers)
        assert sorted(calls) == list(itertools.product((0, 1), repeat=4))
        assert report.collective == collective
        assert report.individual == pytest.approx(math.log1p(1.0), rel=1e-12)

