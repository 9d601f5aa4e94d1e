import itertools
import math

import numpy as np
import pytest

from dpdist.audit import (
    DistinguisherReport,
    EquivalenceReport,
    SparseBernoulli,
    chernoff_lower_tail_bound,
    chernoff_tail_check,
    definition_equivalence_check,
    distinguisher_experiment,
    exact_epsilon,
    flip_panel,
    hoeffding_bound,
    hoeffding_tail_check,
    likelihood_ratios,
    round_budget,
    sample_sparse,
    sample_sparse_sums,
    v_statistics,
    view_probability_transfer,
)
from dpdist.core import GapParams
from dpdist.local_model import (
    CuratorView,
    constant_sanitizer,
    enumerate_noninteractive,
    flip_sanitizer,
    identity_sanitizer,
    randomized_response_sum,
    run_noninteractive,
    sum_to_gap,
)
from dpdist.mechanisms import flip, flip_bias_for, flip_output_prob
from dpdist.seeding import derive_rng


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
        assert nu1 == 64.0
        d4, nu4 = round_budget(4)
        assert d4 == pytest.approx(16 * 16 * math.log(6), rel=1e-12)
        assert nu4 == pytest.approx(64 * math.log(6), rel=1e-12)
        assert d4 > d1 and nu4 > nu1
        with pytest.raises(ValueError):
            round_budget(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseBernoulli(n=10_000, eps=1.0, d=1.0)
        with pytest.raises(ValueError):
            SparseBernoulli(n=1, eps=0.5, d=1.5)

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

    def test_claimed_epsilon_is_honest(self):
        for s in (
            flip_sanitizer(flip_bias_for(0.5)),
            flip_sanitizer(flip_bias_for(2.0)),
            constant_sanitizer(1),
            identity_sanitizer(),
        ):
            assert exact_epsilon(s) <= s.claimed_epsilon + 1e-12


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
        sanitizers = [flip_sanitizer(flip_bias_for(eps))] * n
        curator = lambda msgs: None
        rng = derive_rng(seed)
        stats = []
        for _ in range(trials):
            x = sample_sparse(p, rng)
            _, view = run_noninteractive(sanitizers, curator, x, rng)
            stats.append(likelihood_ratios(sanitizers, view, p))
        return p, stats

    def test_uninformative_all_zero(self):
        p = SparseBernoulli(n=3, eps=1.0, d=4.0)
        views = [CuratorView(answers=((0, 0, 0),))] * 1000
        stats = [likelihood_ratios([constant_sanitizer(0)] * 3, v, p) for v in views]
        summary = v_statistics(stats, p)
        assert summary.max_abs == 0.0
        assert summary.mean_log_total == 0.0
        assert summary.passed

    def test_flip_panel_bounds_hold(self):
        p, stats = self._sample_stats(n=50, eps=1.0, d=4.0, trials=1500, seed=64)
        summary = v_statistics(stats, p)
        assert summary.hard_violations == 0
        assert summary.max_abs <= summary.hard_bound
        assert summary.mean_bound_failures == 0
        assert summary.passed

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
        general_mean = float(np.mean([st.log_total for st in stats]))
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


class TestEmpiricalFallback:
    def test_laplace_message_ratio_estimate(self):
        # real-valued submissions have no exact oracle; the histogram
        # fallback should still track the analytic density log ratio
        eps, density, trials = 1.0, 0.2, 400_000
        rng = derive_rng(74)
        from dpdist.audit import empirical_log_ratios
        from dpdist.local_model import laplace_sanitizer

        s = laplace_sanitizer(eps)
        inputs = (rng.random(trials) < density).astype(np.uint8)
        planted = s.sample_many(inputs, rng)
        zero = s.sample_many(np.zeros(trials, dtype=np.uint8), rng)
        edges, ratios, counts = empirical_log_ratios(planted, zero, bins=40)

        def laplace_cdf(v, mu):
            if v < mu:
                return 0.5 * math.exp(eps * (v - mu))
            return 1.0 - 0.5 * math.exp(-eps * (v - mu))

        def bin_mass(a, b, mu):
            return laplace_cdf(b, mu) - laplace_cdf(a, mu)

        checked = 0
        for k in range(len(ratios)):
            a, b = edges[k], edges[k + 1]
            if not np.isfinite(ratios[k]) or counts[k] < 5000:
                continue
            mass0 = bin_mass(a, b, 0.0)
            mass1 = bin_mass(a, b, 1.0)
            analytic = math.log((density * mass1 + (1 - density) * mass0) / mass0)
            assert abs(ratios[k] - analytic) < 0.05
            checked += 1
        assert checked >= 10

    def test_rejects_empty_samples(self):
        from dpdist.audit import empirical_log_ratios

        with pytest.raises(ValueError):
            empirical_log_ratios(np.array([]), np.array([1.0]))


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
        with pytest.raises(ValueError):
            distinguisher_experiment(lambda x, rng: 0, p, trials=1)

    def test_rejects_zero_trials(self):
        p = SparseBernoulli(n=4, eps=1.0, d=9.0)
        with pytest.raises(ValueError, match="trials"):
            distinguisher_experiment(lambda x, rng: 0, p, trials=0, rng=derive_rng(0))


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

