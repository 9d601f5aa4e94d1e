import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpdist.core import GapParams, GapValue, gap_threshold
from dpdist.fixtures import RelayProtocol
from dpdist.local_model import (
    Curator,
    InteractiveParty,
    ProtocolAbortError,
    _indexed_joint_tapes,
    constant_sanitizer,
    enumerate_interactive,
    enumerate_noninteractive,
    flip_party,
    flip_sanitizer,
    gapk_to_gap0,
    identity_sanitizer,
    joint_tapes,
    laplace_submission_sum,
    party_consistent_probability,
    randomized_response_sum,
    rr_count_distribution,
    rr_debias,
    rr_estimate_batch,
    run_interactive,
    run_noninteractive,
    sum_to_gap,
)
from dpdist.mechanisms import flip_bias_for, flip_output_prob
from dpdist.seeding import derive_rng


def exact_count_distribution(x, params):
    """Independent oracle: enumerate all report vectors and bin by count."""
    probs = {}
    n = len(x)
    for reports in itertools.product((0, 1), repeat=n):
        p = 1.0
        for xi, zi in zip(x, reports):
            p *= flip_output_prob(xi, zi, params)
        k = sum(reports)
        probs[k] = probs.get(k, 0.0) + p
    return probs


class TestRunNoninteractive:
    def test_identity_with_summing_curator(self):
        out, view = run_noninteractive(
            [identity_sanitizer()] * 3, lambda msgs: int(np.sum(msgs)), [1, 0, 1], derive_rng(0)
        )
        assert out == 2
        assert [s for r in view.answers for s in r] == [1, 0, 1]

    def test_rr_output_centered_at_sum(self):
        n, eps, runs = 10_000, 1.0, 10_000
        x = np.zeros(n, dtype=np.uint8)
        x[: n // 3] = 1
        true = int(x.sum())
        s = flip_sanitizer(flip_bias_for(eps))
        params = flip_bias_for(eps)
        rng = derive_rng(21)
        curator = lambda msgs: rr_debias(float(np.sum(msgs)), n, params)
        estimates = np.array(
            [run_noninteractive([s] * n, curator, x, rng)[0] for _ in range(runs)]
        )
        # Var(estimate) = 2n at eps=1, so the mean of `runs` trials has
        # standard error sqrt(2n/runs)
        se = math.sqrt(2 * n / runs)
        assert abs(estimates.mean() - true) < 3 * se

    def test_batches_only_specs_equal_to_the_first(self):
        params = flip_bias_for(1.0)
        log = []

        def counted(spec):
            # fresh callables, so each counted spec is distinct from the others
            return dataclasses.replace(
                spec,
                sample=lambda x, rng: log.append("one") or spec.sample(x, rng),
                sample_many=lambda xs, rng: log.append("many") or spec.sample_many(xs, rng),
            )

        x = [1, 0, 1, 1]
        summed = lambda msgs: int(np.sum(msgs))
        run_noninteractive([counted(flip_sanitizer(params)) for _ in x], summed, x, derive_rng(0))
        assert log == ["one"] * len(x)
        log.clear()
        s = counted(flip_sanitizer(params))
        run_noninteractive([s] * len(x), summed, x, derive_rng(0))
        assert log == ["many"]
        log.clear()
        # a copy holds the same callables, so it compares equal and is batched
        run_noninteractive([s, dataclasses.replace(s)] * 2, summed, x, derive_rng(0))
        assert log == ["many"]

    def test_single_party_message_distribution(self):
        s = flip_sanitizer(flip_bias_for(1.0))
        dist = enumerate_noninteractive([s], [1])
        assert dist[(1,)] == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert dist[(0,)] == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_sanitizer_count_mismatch(self):
        with pytest.raises(ValueError):
            run_noninteractive([identity_sanitizer()], lambda m: 0, [1, 0], derive_rng(0))


class TestRandomizedResponseSum:
    def test_estimator_zero_point(self):
        n, p = 100, flip_bias_for(1.0)
        assert rr_debias((0.5 - p.flip_bias) * n, n, p) == pytest.approx(0.0, abs=1e-9)

    def test_estimate_standard_deviation(self):
        n, eps, trials = 10_000, 1.0, 4_000
        x = np.zeros(n, dtype=np.uint8)
        x[: n // 2] = 1
        rng = derive_rng(22)
        ests = np.array([randomized_response_sum(x, eps, rng)[0] for _ in range(trials)])
        assert abs(ests.std(ddof=1) - math.sqrt(2 * n)) / math.sqrt(2 * n) < 0.10

    def test_large_deviation_rare(self):
        n, eps, trials = 10_000, 1.0, 2_000
        x = np.ones(n, dtype=np.uint8)
        rng = derive_rng(23)
        errs = np.abs(
            np.array([randomized_response_sum(x, eps, rng)[0] for _ in range(trials)]) - n
        )
        assert np.mean(errs > 5 * math.sqrt(n)) < 0.01

    def test_unbiased_on_fixed_inputs(self):
        n, trials = 400, 20_000
        rng = derive_rng(24)
        for ones in (0, 100, 400):
            x = np.zeros(n, dtype=np.uint8)
            x[:ones] = 1
            ests = rr_estimate_batch(x, 1.0, trials, rng)
            se = math.sqrt(2 * n / trials)
            assert abs(ests.mean() - ones) < 3 * se

    def test_batch_matches_exact_distribution(self):
        # the binomial shortcut and the exact convolution agree
        params = flip_bias_for(1.0)
        x = [1, 1, 0, 0, 0]
        oracle = exact_count_distribution(x, params)
        convolved = rr_count_distribution(x, params)
        for k in oracle:
            assert convolved[k] == pytest.approx(oracle[k], abs=1e-12)
        rng = derive_rng(25)
        ests = rr_estimate_batch(x, 1.0, 200_000, rng)
        counts = ests * 2 * params.flip_bias + (0.5 - params.flip_bias) * len(x)
        for k in oracle:
            emp = np.mean(np.abs(counts - k) < 1e-9)
            se = math.sqrt(oracle[k] * (1 - oracle[k]) / 200_000)
            assert abs(emp - oracle[k]) < 4 * se

    def test_view_symbols_are_bits(self):
        _, view = randomized_response_sum([1, 0, 1], 1.0, derive_rng(0))
        assert set(int(s) for r in view.answers for s in r) <= {0, 1}


class TestSymmetry:
    def test_exact_distribution_invariant_under_permutations(self):
        params = flip_bias_for(1.0)
        base = (1, 1, 0, 0)
        ref = rr_count_distribution(np.array(base, dtype=np.uint8), params)
        for perm in itertools.permutations(range(4)):
            permuted = np.array([base[i] for i in perm], dtype=np.uint8)
            dist = rr_count_distribution(permuted, params)
            for k, p in ref.items():
                assert dist[k] == pytest.approx(p, abs=1e-12)

    def test_distribution_depends_only_on_sum(self):
        params = flip_bias_for(0.5)
        a = rr_count_distribution([1, 0, 1, 0], params)
        b = rr_count_distribution([0, 1, 0, 1], params)
        for k in a:
            assert a[k] == pytest.approx(b[k], abs=1e-15)


class TestLaplaceSubmission:
    def test_variance(self):
        n, eps, trials = 10_000, 1.0, 20_000
        x = np.zeros(n, dtype=np.uint8)
        x[:100] = 1
        rng = derive_rng(26)
        errs = np.array(
            [laplace_submission_sum(x, eps, rng)[0] - 100 for _ in range(trials)]
        )
        assert abs(np.var(errs) - 2 * n) / (2 * n) < 0.05

    def test_empty_input(self):
        est, _ = laplace_submission_sum([], 1.0, derive_rng(0))
        assert est == 0.0

    def test_sqrt_n_scale_with_constant_probability(self):
        n, eps = 10_000, 1.0
        x = np.ones(n, dtype=np.uint8)
        rng = derive_rng(27)
        errs = np.abs(
            np.array([laplace_submission_sum(x, eps, rng)[0] - n for _ in range(200)])
        )
        assert np.mean(errs <= 3 * math.sqrt(n) / eps) > 0.5

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            laplace_submission_sum([1], 0.0, derive_rng(0))


def _noninteractive_as_interactive(params, n):
    """Query-ignoring single-round parties that report a flipped bit."""
    return [flip_party([params]) for _ in range(n)]


class TestInteractive:
    def test_single_round_matches_noninteractive(self):
        params = flip_bias_for(1.0)
        n = 2
        x = [1, 0]
        parties = _noninteractive_as_interactive(params, n)
        curator = Curator(
            query=lambda j, hist: (None,) * n,
            output=lambda view: sum(view.answers[-1]),
        )
        dist = {}
        for key, (prob, _) in enumerate_interactive(parties, curator, x, 1).items():
            symbols = key[0]
            dist[symbols] = dist.get(symbols, 0.0) + prob
        expected = enumerate_noninteractive([flip_sanitizer(params)] * n, x)
        assert set(dist) == set(expected)
        for c in expected:
            assert dist[c] == pytest.approx(expected[c], abs=1e-12)

    def test_echo_round_two_repeats(self):
        def answer(x_i, queries, tape):
            return int(x_i) if len(queries) == 1 else int(x_i)

        parties = [InteractiveParty(answer=answer) for _ in range(2)]
        curator = Curator(
            query=lambda j, hist: (None, None), output=lambda view: view.answers[-1]
        )
        _, view = run_interactive(parties, curator, [1, 0], 2, derive_rng(0))
        assert view.answers[0] == view.answers[1]
        assert view.rounds == 2
        assert sum(len(r) for r in view.answers) == 4

    def test_per_round_private_composition(self):
        # two rounds of flips: the per-party transcript ratio never exceeds
        # the product of the per-round worst cases
        eps = 1.0
        params = flip_bias_for(eps)
        party = flip_party([params, params])
        per_round_ratio = 1.0 + eps
        for answers in itertools.product((0, 1), repeat=2):
            a1 = party_consistent_probability(party, 1, [None, None], answers)
            a0 = party_consistent_probability(party, 0, [None, None], answers)
            assert a1 > 0 and a0 > 0
            ratio = max(a1 / a0, a0 / a1)
            assert ratio <= per_round_ratio**2 + 1e-12

    def test_consistent_probability_is_product_of_rounds(self):
        params = flip_bias_for(1.0)
        party = flip_party([params, params])
        for x_i in (0, 1):
            for answers in itertools.product((0, 1), repeat=2):
                expected = flip_output_prob(x_i, answers[0], params) * flip_output_prob(
                    x_i, answers[1], params
                )
                got = party_consistent_probability(party, x_i, [None, None], answers)
                assert got == pytest.approx(expected, abs=1e-12)

    def test_party_failure_aborts(self):
        def broken(x_i, queries, tape):
            raise RuntimeError("boom")

        parties = [InteractiveParty(answer=broken)]
        curator = Curator(query=lambda j, hist: (None,), output=lambda view: None)
        with pytest.raises(ProtocolAbortError):
            run_interactive(parties, curator, [1], 1, derive_rng(0))

    @staticmethod
    def _recording_parties(n, seen):
        def answer(x_i, queries, tape):
            seen.append(type(x_i))
            return x_i

        return [InteractiveParty(answer=answer, tape_space=lambda: [(None, 1.0)])] * n

    @pytest.mark.parametrize("x", [[1, 0], np.array([1, 0], dtype=np.uint8)], ids=["list", "array"])
    def test_parties_receive_python_ints(self, x):
        seen = []
        parties = self._recording_parties(2, seen)
        curator = Curator(query=lambda j, hist: (None, None), output=lambda v: v.answers[-1])
        output, _ = run_interactive(parties, curator, x, 2, derive_rng(0))
        ((_, (prob, enumerated)),) = enumerate_interactive(parties, curator, x, 2).items()
        assert output == enumerated == (1, 0) and prob == 1.0
        assert len(seen) == 8 and set(seen) == {int}

    @pytest.mark.parametrize("wrap,n_calls", [(tuple, 8), (list, 16)], ids=["cached", "unhashable"])
    def test_queries_that_do_not_hash_replay_uncached(self, wrap, n_calls):
        # 4 joint tapes x 2 rounds x 2 parties; cached, each (party, tape, queries) answers once
        calls = []

        def answer(x_i, queries, tape):
            calls.append(queries)
            return (x_i + tape + queries[-1][0]) % 2

        parties = [InteractiveParty(answer=answer, tape_space=lambda: [(0, 0.5), (1, 0.5)])] * 2
        curator = Curator(query=lambda j, hist: (wrap([j]),) * 2, output=lambda view: view.answers[-1])
        got = enumerate_interactive(parties, curator, [1, 0], 2)
        assert len(calls) == n_calls
        expected = enumerate_interactive(
            parties, Curator(query=lambda j, hist: ((j,),) * 2, output=curator.output), [1, 0], 2
        )
        assert list(got.items()) == list(expected.items())

    def test_invalid_input_rejected_before_any_tape_runs(self):
        seen = []
        parties = self._recording_parties(2, seen)
        curator = Curator(query=lambda j, hist: (None, None), output=lambda v: None)
        with pytest.raises(ValueError):
            enumerate_interactive(parties, curator, [0, 2], 1)
        assert seen == []

    def test_curator_query_count_enforced(self):
        parties = [InteractiveParty(answer=lambda x, q, t: x)] * 2
        curator = Curator(query=lambda j, hist: (None,), output=lambda view: None)
        with pytest.raises(ValueError):
            run_interactive(parties, curator, [1, 0], 1, derive_rng(0))


def _joint_tapes_loop(spaces):
    """Reference: product order, probability multiplied left to right from 1.0, zeros skipped."""
    out = []
    for combo in itertools.product(*spaces):
        prob = 1.0
        for _, p in combo:
            prob *= p
        if prob > 0.0:
            out.append((tuple(tape for tape, _ in combo), prob))
    return out


def _bits(assignments):
    return [(tapes, prob.hex()) for tapes, prob in assignments]


_PROBS = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 5e-324, 0.1, 1 / 3]))
_SPACES = st.lists(st.lists(st.tuples(st.integers(0, 9), _PROBS), max_size=4), max_size=4)
_FLIP_ROUNDS = st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0]).map(flip_bias_for), min_size=1, max_size=3)


class TestJointTapes:
    def test_product_order_and_left_to_right_probability(self):
        spaces = [[("a", 0.3), ("b", 0.7)], [(0, 0.1), (1, 0.5), (2, 0.4)], [(None, 0.9)]]
        expected = _joint_tapes_loop(spaces)
        assert len(expected) == 6
        # exact equality: the probabilities must be bit-identical
        assert list(joint_tapes(spaces)) == expected
        assert list(joint_tapes([iter(space) for space in spaces])) == expected

    @given(_SPACES)
    def test_matches_the_loop_bit_for_bit(self, spaces):
        expected = _joint_tapes_loop(spaces)
        assert _bits(joint_tapes(spaces)) == _bits(expected)
        assert _bits(joint_tapes([iter(space) for space in spaces])) == _bits(expected)

    @given(_SPACES)
    def test_indices_name_the_tapes(self, spaces):
        indexed = list(_indexed_joint_tapes([iter(space) for space in spaces]))
        assert [(tapes, prob) for tapes, _, prob in indexed] == list(joint_tapes(spaces))
        for tapes, ids, _ in indexed:
            assert tapes == tuple(space[k][0] for space, k in zip(spaces, ids))

    @given(st.lists(_FLIP_ROUNDS, min_size=1, max_size=3))
    def test_generator_spaces_match_the_loop(self, party_rounds):
        def spaces():
            return [flip_party(rounds).tape_space() for rounds in party_rounds]

        assert _bits(joint_tapes(spaces())) == _bits(_joint_tapes_loop(spaces()))

    def test_zero_probability_assignments_dropped(self):
        relay = RelayProtocol(keep_prob=1.0)
        spaces = [relay.tape_space(i) for i in range(relay.n)]
        assert list(joint_tapes(spaces)) == [((True, True), 1.0)]


class TestMultiplicativeTranscriptLaw:
    def test_interactive_view_probability_factorizes(self):
        # joint tape enumeration vs the product of per-party consistency
        params = flip_bias_for(0.5)
        n, rounds = 3, 2
        x = [1, 0, 1]
        parties = [flip_party([params, params]) for _ in range(n)]
        curator = Curator(query=lambda j, hist: (None,) * n, output=lambda v: None)
        for key, (prob, _) in enumerate_interactive(parties, curator, x, rounds).items():
            product = 1.0
            for i in range(n):
                answers = [key[r][i] for r in range(rounds)]
                product *= party_consistent_probability(
                    parties[i], x[i], [None] * rounds, answers
                )
            assert product == pytest.approx(prob, abs=1e-12)


class TestSumToGap:
    def test_tie_maps_to_zero(self):
        gap = sum_to_gap(lambda x, rng: (5.0, None), GapParams(kappa=3, tau=4))
        assert gap([0] * 4, derive_rng(0))[0] == 0

    def test_perfect_oracle_above_gap(self):
        gap = sum_to_gap(lambda x, rng: (float(np.sum(x)), None), GapParams(0, 4))
        assert gap([1, 1, 1, 1], derive_rng(0))[0] == 1

    def test_rr_gap_correct_on_promise_inputs(self):
        n, eps = 10_000, 1.0
        tau = int(10 * math.sqrt(n))
        gap = sum_to_gap(lambda x, rng: randomized_response_sum(x, eps, rng), GapParams(0, tau))
        rng = derive_rng(28)
        trials = 10_000
        zeros = np.zeros(n, dtype=np.uint8)
        high = np.zeros(n, dtype=np.uint8)
        high[:tau] = 1
        correct = 0
        for _ in range(trials // 2):
            correct += gap(zeros, rng)[0] == 0
            correct += gap(high, rng)[0] == 1
        assert correct / trials >= 0.99


class TestGapKToGap0:
    def _perfect(self, params):
        def oracle(x, rng):
            value = gap_threshold(x, params)
            assert value is not GapValue.UNDEFINED
            return value.bit, None

        return oracle

    def test_reduction_exhaustive_low_kappa(self):
        n, kappa, tau = 12, 3, 2
        reduced = gapk_to_gap0(self._perfect(GapParams(kappa, tau)), n, GapParams(kappa, tau))
        rng = derive_rng(0)
        for code in range(1 << 6):
            half = [(code >> i) & 1 for i in range(6)]
            expected = gap_threshold(half, GapParams(0, tau))
            if expected is GapValue.UNDEFINED:
                continue
            assert reduced(half, rng)[0] == expected.bit

    def test_reduction_exhaustive_high_kappa(self):
        n, kappa, tau = 12, 8, 2
        reduced = gapk_to_gap0(self._perfect(GapParams(kappa, tau)), n, GapParams(kappa, tau))
        rng = derive_rng(0)
        for code in range(1 << 6):
            half = [(code >> i) & 1 for i in range(6)]
            expected = gap_threshold(half, GapParams(0, tau))
            if expected is GapValue.UNDEFINED:
                continue
            assert reduced(half, rng)[0] == expected.bit

    def test_kappa_zero_pads_with_zeros(self):
        seen = {}

        def probe(x, rng):
            seen["x"] = list(x)
            return 0, None

        reduced = gapk_to_gap0(probe, 8, GapParams(0, 2))
        reduced([1, 0, 1, 1], derive_rng(0))
        assert seen["x"] == [1, 0, 1, 1, 0, 0, 0, 0]

    def test_kappa_max_all_ones_gives_one(self):
        n, tau = 12, 2
        kappa = n - tau
        reduced = gapk_to_gap0(self._perfect(GapParams(kappa, tau)), n, GapParams(kappa, tau))
        assert reduced([1] * 6, derive_rng(0))[0] == 1

    def test_kappa_out_of_range(self):
        with pytest.raises(ValueError):
            gapk_to_gap0(lambda x, rng: (0, None), 8, GapParams(7, 2))
        with pytest.raises(ValueError):
            gapk_to_gap0(lambda x, rng: (0, None), 7, GapParams(0, 2))
