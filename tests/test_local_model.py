import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpdist.core import GapParams
from dpdist.fixtures import RelayProtocol
from dpdist.local_model import (
    Curator,
    InteractiveParty,
    constant_sanitizer,
    enumerate_interactive,
    enumerate_noninteractive,
    flip_party,
    flip_sanitizer,
    joint_tapes,
    randomized_response_sum,
    rr_count_distribution,
    rr_debias,
    rr_estimate_batch,
    rr_report_count_chunks,
    rr_report_counts,
    run_interactive,
    run_interactive_with_tapes,
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


def answer_probability(party, x_i, queries, answers):
    """Oracle: probability that the party answers ``answers`` when fed ``queries`` round by round."""

    def reproduces(tape):
        return all(party.answer(x_i, tuple(queries[: j + 1]), tape) == a for j, a in enumerate(answers))

    return sum((prob for tape, prob in party.tape_space() if reproduces(tape)), 0.0)


class TestEnumerateNoninteractive:
    def test_single_party_message_distribution(self):
        s = flip_sanitizer(flip_bias_for(1.0))
        dist = enumerate_noninteractive([s], [1])
        assert dist[(1,)] == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert dist[(0,)] == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_sanitizer_count_mismatch(self):
        with pytest.raises(ValueError, match="one sanitizer per party"):
            enumerate_noninteractive([constant_sanitizer()], [1, 0])

    def test_matches_product_of_flip_probabilities(self):
        params = flip_bias_for(1.0)
        x = [1, 0, 1]
        dist = enumerate_noninteractive([flip_sanitizer(params)] * 3, x)
        assert set(dist) == set(itertools.product((0, 1), repeat=3))
        for c, prob in dist.items():
            expected = math.prod(flip_output_prob(xi, ci, params) for xi, ci in zip(x, c))
            assert prob == pytest.approx(expected, rel=1e-15)

    def test_constant_sanitizers_give_a_point_mass(self):
        assert enumerate_noninteractive([constant_sanitizer("a")] * 3, [1, 0, 1]) == {("a", "a", "a"): 1.0}


class TestRandomizedResponseSum:
    def test_rr_output_centered_at_sum(self):
        n, eps, runs = 10_000, 1.0, 10_000
        x = np.zeros(n, dtype=np.uint8)
        x[: n // 3] = 1
        true = int(x.sum())
        rng = derive_rng(21)
        estimates = np.array([randomized_response_sum(x, eps, rng)[0] for _ in range(runs)])
        # Var(estimate) = 2n at eps=1, so the mean of `runs` trials has
        # standard error sqrt(2n/runs)
        se = math.sqrt(2 * n / runs)
        assert abs(estimates.mean() - true) < 3 * se

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

    @pytest.mark.parametrize("s, size", [(np.array([0, 3, 7, 7]), None), (3, 4)])
    def test_report_counts_draw_order(self, s, size):
        # Bin(s, keep), then Bin(n - s, 1 - keep): the one draw order every sampled count uses
        p = flip_bias_for(1.0)
        rng, twin = derive_rng(26), derive_rng(26)
        got = rr_report_counts(7, s, p, rng, size=size)
        want = twin.binomial(s, p.keep_prob, size) + twin.binomial(7 - s, 1.0 - p.keep_prob, size)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
        assert rng.random() == twin.random()

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
    def test_report_count_chunks_equal_one_call(self, dtype):
        p = flip_bias_for(1.0)
        n = 200
        whole = derive_rng(27).binomial(n, 0.3, size=1000)
        sums = [whole[a:b].astype(dtype) for a, b in [(0, 400), (400, 800), (800, 1000)]]
        rng, twin = derive_rng(28), derive_rng(28)
        got = list(rr_report_count_chunks(n, sums, p, rng))
        want = rr_report_counts(n, whole, p, twin)
        assert [c.dtype for c in got] == [np.dtype(np.int64)] * 3
        np.testing.assert_array_equal(np.concatenate(got), want)
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("n", [0, 1, 100, 10_000])
    def test_estimate_debiases_the_reported_ones(self, n):
        p = flip_bias_for(1.0)
        x = (derive_rng(29, n).random(n) < 0.5).astype(np.uint8)
        rng, twin = derive_rng(30, n), derive_rng(30, n)
        est, view = randomized_response_sum(x, 1.0, rng)
        assert est == rr_debias(float(view.answers[0].sum()), n, p)
        # one uniform per party, so the generator is where rng.random(n) leaves it
        twin.random(n)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_view_symbols_are_bits(self):
        _, view = randomized_response_sum([1, 0, 1], 1.0, derive_rng(0))
        assert set(int(s) for r in view.answers for s in r) <= {0, 1}


class TestBinomialStreams:
    """The numpy stream facts that let chunked report counts equal whole-array ones.

    ``phase-transition`` and ``rr_report_count_chunks`` draw in chunks what
    the whole-array code drew in one call.  If numpy breaks a fact here,
    these tests fail rather than the CSV bytes shifting.
    """

    # (n, p): inversion (n*p < 30), BTPE, and p > 1/2, which numpy draws as n - Bin(n, 1 - p)
    CASES = [(10_000, 4e-4), (10_000, 0.4), (10_000, 0.6), (7, 0.9)]

    @pytest.mark.parametrize("n, p", CASES)
    def test_scalar_draws_split_across_calls_equal_one_call(self, n, p):
        rng, twin = derive_rng(29, n), derive_rng(29, n)
        split = np.concatenate([rng.binomial(n, p, size=300), rng.binomial(n, p, size=701)])
        np.testing.assert_array_equal(split, twin.binomial(n, p, size=1001))
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("n, p", CASES)
    def test_array_draws_split_in_order_equal_one_call(self, n, p):
        ns = derive_rng(30, n).integers(0, n, size=1001, endpoint=True)
        rng, twin = derive_rng(31, n), derive_rng(31, n)
        compact = ns.astype(np.min_scalar_type(n))  # the dtype of the parameters does not matter
        split = np.concatenate([rng.binomial(compact[:300], p), rng.binomial(compact[300:], p)])
        np.testing.assert_array_equal(split, twin.binomial(ns, p))
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("p", [4e-4, 0.4, 0.6])
    def test_zero_trials_draw_nothing(self, p):
        rng = derive_rng(32)
        before = rng.bit_generator.state
        assert rng.binomial(0, p, size=1000).tolist() == [0] * 1000
        assert rng.bit_generator.state == before


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
        for key, prob in enumerate_interactive(parties, curator, x, 1).items():
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
            a1 = answer_probability(party, 1, [None, None], answers)
            a0 = answer_probability(party, 0, [None, None], answers)
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
                got = answer_probability(party, x_i, [None, None], answers)
                assert got == pytest.approx(expected, abs=1e-12)

    def test_party_failure_aborts(self):
        def broken(x_i, queries, tape):
            raise RuntimeError("boom")

        parties = [InteractiveParty(answer=broken)]
        curator = Curator(query=lambda j, hist: (None,), output=lambda view: None)
        with pytest.raises(RuntimeError) as caught:
            run_interactive(parties, curator, [1], 1, derive_rng(0))
        assert type(caught.value) is RuntimeError and str(caught.value) == "boom"

    @staticmethod
    def _recording_parties(n, seen):
        def answer(x_i, queries, tape):
            seen.append(type(x_i))
            return x_i

        return [InteractiveParty(answer=answer, tape_space=lambda: [(None, 1.0)])] * n

    @pytest.mark.parametrize("n_tapes", [2, 4], ids=["short", "long"])
    def test_tape_count_must_match_party_count(self, n_tapes):
        seen = []
        parties = self._recording_parties(3, seen)
        curator = Curator(query=lambda j, hist: (None,) * 3, output=lambda v: v.answers[-1])
        with pytest.raises(ValueError, match="one tape per party"):
            run_interactive_with_tapes(parties, curator, [1, 0, 1], 1, [None] * n_tapes)
        assert seen == []

    @pytest.mark.parametrize("x", [[1, 0], np.array([1, 0], dtype=np.uint8)], ids=["list", "array"])
    def test_parties_receive_python_ints(self, x):
        seen = []
        parties = self._recording_parties(2, seen)
        curator = Curator(query=lambda j, hist: (None, None), output=lambda v: v.answers[-1])
        output, _ = run_interactive(parties, curator, x, 2, derive_rng(0))
        ((enumerated, prob),) = enumerate_interactive(parties, curator, x, 2, by_output=True).items()
        assert output == enumerated == (1, 0) and prob == 1.0
        assert len(seen) == 8 and set(seen) == {int}

    @staticmethod
    def _query_echo(calls, wrap):
        """Two parties with tapes 0 and 1 answering (x + tape + query) mod 2 to the query ``wrap([j])``."""

        def answer(x_i, queries, tape):
            calls.append(queries)
            return (x_i + tape + queries[-1][0]) % 2

        parties = [InteractiveParty(answer=answer, tape_space=lambda: [(0, 0.5), (1, 0.5)])] * 2
        curator = Curator(query=lambda j, hist: (wrap([j]),) * 2, output=lambda view: view.answers[-1])
        return parties, curator

    def test_queries_that_hash_answer_once_per_history(self):
        # 4 joint tapes x 2 rounds x 2 parties; cached, each (party, tape, queries) answers once
        calls = []
        parties, curator = self._query_echo(calls, tuple)
        got = enumerate_interactive(parties, curator, [1, 0], 2)
        assert len(calls) == 8
        expected = enumerate_interactive(
            parties, Curator(query=lambda j, hist: ((j,),) * 2, output=curator.output), [1, 0], 2
        )
        assert list(got.items()) == list(expected.items())

    def test_list_queries_raise_before_any_answer(self):
        # the first party's first history is a memo key, so the list query raises before it answers
        calls = []
        parties, curator = self._query_echo(calls, list)
        with pytest.raises(TypeError) as caught:
            enumerate_interactive(parties, curator, [1, 0], 2)
        assert type(caught.value) is TypeError and str(caught.value) == "unhashable type: 'list'"
        assert calls == []
        assert run_interactive_with_tapes(parties, curator, [1, 0], 2, [0, 1])[0] == (1, 1)

    def test_a_none_answer_is_cached(self):
        # 2 parties x 2 tapes x 2 rounds histories; the per-tape loop would answer 16 times
        calls = []

        def answer(x_i, queries, tape):
            calls.append((x_i, tape, queries))
            return None

        parties = [InteractiveParty(answer=answer, tape_space=lambda: [(0, 0.5), (1, 0.5)])] * 2
        curator = Curator(query=lambda j, hist: (j, j), output=lambda view: view.rounds)
        got = enumerate_interactive(parties, curator, [1, 0], 2)
        assert got == {((None, None), (None, None)): 1.0}
        assert len(calls) == len(set(calls)) == 8

    def test_list_answers_raise_at_the_view_key(self):
        # the queries hash, so every answer runs; the first view key holds lists and does not
        def parties(wrap, calls):
            def answer(x_i, queries, tape):
                calls.append(queries)
                return wrap([x_i ^ tape, wrap([len(queries)])])

            return [InteractiveParty(answer=answer, tape_space=lambda: [(0, 0.25), (1, 0.75)])] * 2

        curator = Curator(query=lambda j, hist: (None, None), output=lambda view: view.rounds)
        calls = []
        with pytest.raises(TypeError) as caught:
            enumerate_interactive(parties(list, calls), curator, [1, 0], 2)
        assert type(caught.value) is TypeError and str(caught.value) == "unhashable type: 'list'"
        assert len(calls) == 4  # the first joint tape's 2 rounds x 2 parties
        assert sum(enumerate_interactive(parties(tuple, []), curator, [1, 0], 2).values()) == 1.0

    def test_invalid_input_rejected_before_any_tape_runs(self):
        seen = []
        parties = self._recording_parties(2, seen)
        curator = Curator(query=lambda j, hist: (None, None), output=lambda v: None)
        with pytest.raises(ValueError):
            enumerate_interactive(parties, curator, [0, 2], 1)
        assert seen == []

    @pytest.mark.parametrize(
        "n,x,rounds,match",
        [
            (2, [0, 2], 1, "must be 0 or 1"),
            (3, [1, 0], 1, "one party program per input bit"),
            (2, [1, 0], 0, "rounds must be at least 1"),
        ],
        ids=["non-bit-input", "party-count", "zero-rounds"],
    )
    def test_bad_call_raises_before_any_draw(self, n, x, rounds, match):
        parties = [flip_party([flip_bias_for(1.0)])] * n
        curator = Curator(query=lambda j, hist: (None,) * n, output=lambda view: None)
        rng = derive_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=match):
            run_interactive(parties, curator, x, rounds, rng)
        assert rng.bit_generator.state == before

    def test_a_miss_receives_the_first_seen_queries(self):
        # party 0 answers its tape, 0 then 1; the curator asks party 1 the equal 1 or True in round 2
        # and party 0's answer in round 3, so on tape 1 party 1 hits in round 2 and misses in round 3
        seen = []

        def record(x_i, queries, tape):
            if len(queries) == 3:
                seen.append(type(queries[1]))
            return tape

        def query(j, hist):
            if j == 1:
                return (None, None)
            answer = hist[0][0]
            return (None, (True if answer else 1) if j == 2 else answer)

        parties = [
            InteractiveParty(answer=lambda x_i, queries, tape: tape, tape_space=lambda: [(0, 0.5), (1, 0.5)]),
            InteractiveParty(answer=record, tape_space=lambda: [(None, 1.0)]),
        ]
        curator = Curator(query=query, output=lambda view: view.answers[-1][0])
        run_interactive_with_tapes(parties, curator, [1, 0], 3, [1, None])
        assert seen == [bool]  # a single run hands over its own query
        seen.clear()
        assert enumerate_interactive(parties, curator, [1, 0], 3, by_output=True) == {0: 0.5, 1: 0.5}
        assert seen == [int, int]

    def test_party_without_a_tape_space_is_named(self):
        no_space = InteractiveParty(answer=lambda x_i, queries, tape: x_i)
        assert no_space.tape_space() is None
        parties = [InteractiveParty(answer=lambda x_i, queries, tape: x_i, tape_space=lambda: [(None, 1.0)]), no_space]
        curator = Curator(query=lambda j, hist: (None, None), output=lambda view: view.answers[-1])
        with pytest.raises(ValueError, match="^party 1 has no finite tape space$"):
            enumerate_interactive(parties, curator, [1, 0], 1)

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

    def test_missing_space_raises_before_any_assignment(self):
        with pytest.raises(ValueError, match="^party 1 has no finite tape space$"):
            next(joint_tapes([[(0, 1.0)], None, None]))

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
        for key, prob in enumerate_interactive(parties, curator, x, rounds).items():
            product = 1.0
            for i in range(n):
                answers = [key[r][i] for r in range(rounds)]
                product *= answer_probability(
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
