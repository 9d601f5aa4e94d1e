import hashlib
import itertools
from dataclasses import replace
import json
import math
import os
import pickle
import tempfile
import warnings
from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from dpdist import distributed as ds
from dpdist.core import min_window_weight, min_window_weight_gridded
from dpdist.distributed import (
    DEFAULT_MODULUS,
    CoalitionView,
    Execution,
    Message,
    ObliviousnessViolationError,
    Protocol,
    RRStarProtocol,
    Topology,
    Transcript,
    classify,
    coalition_view,
    coalition_view_distribution,
    compile_to_local,
    consistent_probability,
    enumerate_executions,
    output_distribution,
    execution_records,
    fixed_point_scale,
    gaussian_aggregator_sum,
    gaussian_noise_variance,
    noise_base_variance,
    random_topology,
    randomized_response_distributed,
    read_execution_records,
    run_protocol_with_tapes,
    share_mod_q,
    star_topology,
    sum_mod_q,
    windowed_min_protocol,
    windowed_min_sizes,
    write_execution,
)
from dpdist.fixtures import (
    ChainProtocol,
    NoisyParityProtocol,
    RelayProtocol,
    SharedModularSumProtocol,
    fixture_topology,
)
from dpdist.local_model import (
    InteractiveParty,
    enumerate_interactive,
    joint_tapes,
    randomized_response_sum,
    rr_count_distribution,
    rr_debias,
    run_interactive_with_tapes,
)
from dpdist.mechanisms import flip_bias_for
from dpdist.seeding import derive_rng


def complete_topology(n):
    """Every pair of the n parties joined by a channel."""
    return Topology(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def run_drawn(protocol, topology, x, rng, record=True):
    """The engine run on tapes drawn from ``rng`` one party at a time, in party order."""
    tapes = [protocol.draw_tape(i, rng) for i in range(protocol.n)]
    return run_protocol_with_tapes(protocol, topology, x, tapes, record=record)


class TestTopology:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Topology(3, frozenset({(1, 1)}))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Topology(3, frozenset({(0, 3)}))

    def test_normalizes_pairs(self):
        t = Topology(3, frozenset({(2, 0)}))
        assert (0, 2) in t.channels

    @pytest.mark.parametrize("n", [2.5, 2.0, "2"], ids=["fraction", "float", "text"])
    def test_party_count_that_is_not_an_integer_raises(self, n):
        with pytest.raises(TypeError):
            Topology(n, {(0, 1)})

    def test_negative_party_count_raises(self):
        with pytest.raises(ValueError, match="party count -1 is negative"):
            Topology(-1, ())

    @pytest.mark.parametrize("n", [np.int64(3), np.uint8(3)], ids=["int64", "uint8"])
    def test_party_count_of_any_integer_type_accepted(self, n):
        topo = Topology(n, {(0, 2)})
        assert type(topo.n) is int and topo == Topology(3, frozenset({(0, 2)}))

    @pytest.mark.parametrize("pair", [(0.5, 1), (0, 1.0), ("0", 1)], ids=["fraction", "float", "text"])
    def test_channel_endpoint_that_is_not_an_integer_raises(self, pair):
        with pytest.raises(TypeError):
            Topology(3, {pair})

    def test_channel_endpoints_of_any_integer_type_accepted(self):
        topo = Topology(3, {(np.int64(2), np.uint8(0))})
        assert [tuple(map(type, pair)) for pair in topo.channels] == [(int, int)]
        assert topo == Topology(3, frozenset({(0, 2)}))

    def test_random_topology_channel_count(self):
        rng = derive_rng(31)
        for _ in range(20):
            m = int(rng.integers(0, 64 * 63 // 2 + 1))
            topo = random_topology(64, m, rng)
            assert len(topo.channels) == m


class TestClassify:
    def test_complete_graph_all_popular(self):
        cls = classify(complete_topology(5), 3)
        assert cls.popular == frozenset(range(5))
        assert cls.lonely == frozenset()

    def test_star_leaves_lonely(self):
        cls = classify(star_topology(5), 2)
        assert cls.popular == frozenset({0})
        assert cls.lonely == frozenset({1, 2, 3, 4})

    def test_partition(self):
        rng = derive_rng(32)
        topo = random_topology(16, 20, rng)
        cls = classify(topo, 2)
        assert cls.popular | cls.lonely == frozenset(range(16))
        assert not (cls.popular & cls.lonely)

    @pytest.mark.parametrize("t", [1.5, 1.0, "1"], ids=["fraction", "float", "text"])
    def test_t_that_is_not_an_integer_raises(self, t):
        # 1.5 used to split at "degree >= 2.5"
        with pytest.raises(TypeError):
            classify(star_topology(4), t)

    @pytest.mark.parametrize("t", [np.int64(2), np.uint8(2)], ids=["int64", "uint8"])
    def test_t_of_any_integer_type_accepted(self, t):
        assert classify(star_topology(5), t) == classify(star_topology(5), 2)

    def test_t_zero_any_channel_is_popular(self):
        cls = classify(Topology(3, frozenset({(0, 1)})), 0)
        assert cls.popular == frozenset({0, 1})

    def test_few_channels_force_half_lonely(self):
        # a channel budget of n(t+1)/4 leaves at least n/2 lonely parties
        n = 64
        rng = derive_rng(33)
        for t in (1, 3, 7):
            cap = n * (t + 1) // 4
            for _ in range(100):
                topo = random_topology(n, int(rng.integers(0, cap + 1)), rng)
                assert len(classify(topo, t).lonely) >= n // 2

    def test_t_out_of_range(self):
        with pytest.raises(ValueError):
            classify(complete_topology(3), 3)


class _UndeclaredSender(Protocol):
    n, rounds = 2, 1

    def channels(self):
        return frozenset()

    def send(self, i, x_i, tape, rnd, received):
        return {1 - i: x_i}

    def output(self, x_i, tape, received):
        return 0


class _SilentDeclared(Protocol):
    n, rounds = 2, 1

    def channels(self):
        return frozenset({(0, 1)})

    def send(self, i, x_i, tape, rnd, received):
        return {}

    def output(self, x_i, tape, received):
        return 0


class _Empty(Protocol):
    n, rounds = 2, 0

    def channels(self):
        return frozenset()

    def send(self, i, x_i, tape, rnd, received):
        return {}

    def output(self, x_i, tape, received):
        return 0


class _RecordingRelay(Protocol):
    """Party 0 relays its input to party 1; records the input type every call sees."""

    n, rounds, output_party = 2, 1, 1

    def __init__(self):
        self.seen = []

    def channels(self):
        return frozenset({(0, 1)})

    def tape_space(self, i):
        return [(None, 0.5), ("unused", 0.5)]

    def send(self, i, x_i, tape, rnd, received):
        self.seen.append(type(x_i))
        return {1: x_i} if i == 0 else {}

    def output(self, x_i, tape, received):
        self.seen.append(type(x_i))
        return (x_i, received)


class _Broadcast(Protocol):
    """Three parties; every round each sends (round, sender) to both others and records its view."""

    n, rounds = 3, 3

    def __init__(self):
        self.seen = []

    def channels(self):
        return frozenset({(0, 1), (0, 2), (1, 2)})

    def send(self, i, x_i, tape, rnd, received):
        self.seen.append((i, rnd, received))
        return {j: (rnd, i) for j in range(3) if j != i}

    def output(self, x_i, tape, received):
        return received


def _broadcast_inbox(i, rnd):
    return tuple((j, (rnd, j)) for j in range(3) if j != i)


class TestEngine:
    @pytest.mark.parametrize(
        "x",
        [[1, 0], np.array([1, 0], dtype=np.uint8)],
        ids=["list", "array"],
    )
    def test_parties_receive_python_ints(self, x):
        p = _RecordingRelay()
        e = run_drawn(p, complete_topology(2), x, derive_rng(0))
        assert output_distribution(p, complete_topology(2), x) == {(0, (((0, 1),),)): 1.0}
        assert p.seen and set(p.seen) == {int}
        assert e.inputs == (1, 0) and all(type(b) is int for b in e.inputs)

    @pytest.mark.parametrize("enumerate_fn", [output_distribution, enumerate_executions])
    def test_invalid_input_rejected_before_any_tape_runs(self, enumerate_fn):
        p = _RecordingRelay()
        with pytest.raises(ValueError):
            enumerate_fn(p, complete_topology(2), [0, 2])
        assert p.seen == []

    def test_forwarding_transcript(self):
        p = RelayProtocol(keep_prob=1.0)
        e = run_drawn(p, fixture_topology(p), [1, 0], derive_rng(0))
        assert e.transcript == (Message(1, 0, 1, 1),)
        assert e.output == 1
        assert e.n_messages == 1 and e.rounds == 1

    def test_replay_determinism(self):
        p = NoisyParityProtocol(flip_bias_for(1.0))
        topo = fixture_topology(p)
        e1 = run_drawn(p, topo, [1, 0, 1], derive_rng(42))
        e2 = run_drawn(p, topo, [1, 0, 1], derive_rng(42))
        assert e1.transcript == e2.transcript
        assert e1.output == e2.output
        assert e1.tapes == e2.tapes

    def test_undeclared_channel_rejected(self):
        with pytest.raises(ObliviousnessViolationError):
            run_drawn(_UndeclaredSender(), complete_topology(2), [1, 0], derive_rng(0))

    def test_declared_but_unused_rejected(self):
        with pytest.raises(ObliviousnessViolationError):
            run_drawn(_SilentDeclared(), complete_topology(2), [1, 0], derive_rng(0))

    def test_protocol_needs_topology_channels(self):
        p = RelayProtocol()
        with pytest.raises(ValueError):
            run_drawn(p, Topology(2, frozenset()), [1, 0], derive_rng(0))

    @pytest.mark.parametrize("n_tapes", [2, 4], ids=["short", "long"])
    def test_tape_count_must_match_party_count(self, n_tapes):
        p = _Broadcast()
        with pytest.raises(ValueError, match="one tape per party"):
            run_protocol_with_tapes(p, complete_topology(3), [1, 0, 1], [None] * n_tapes)
        assert p.seen == []

    def test_empty_protocol_sends_nothing(self):
        e = run_drawn(_Empty(), complete_topology(2), [1, 0], derive_rng(0))
        assert e.n_messages == 0
        assert e.transcript == ()

    def test_fixed_communication_across_seeds(self):
        p = NoisyParityProtocol(flip_bias_for(0.5))
        topo = fixture_topology(p)
        patterns = set()
        for seed in range(100):
            e = run_drawn(p, topo, [1, 1, 0], derive_rng(seed))
            patterns.add(tuple((m.round, m.sender, m.receiver) for m in e.transcript))
        assert len(patterns) == 1

    def test_round_r_sends_see_only_completed_rounds(self):
        # lower-index parties send first in each round; none of their round-r
        # messages may reach a higher-index party's round-r send
        p = _Broadcast()
        e = run_drawn(p, complete_topology(3), [1, 0, 1], derive_rng(0))
        assert [(i, rnd) for i, rnd, _ in p.seen] == [(i, r) for r in (1, 2, 3) for i in range(3)]
        for i, rnd, received in p.seen:
            assert received == tuple(_broadcast_inbox(i, r) for r in range(1, rnd))
        assert e.output == tuple(_broadcast_inbox(0, r) for r in (1, 2, 3))
        assert e.n_messages == 18 and list(e.transcript) == sorted(e.transcript)


class TestTranscriptFactorization:
    @pytest.mark.parametrize(
        "protocol",
        [
            RelayProtocol(keep_prob=0.8),
            NoisyParityProtocol(flip_bias_for(1.0)),
            ChainProtocol(flip_bias_for(0.5)),
        ],
        ids=["relay", "parity", "chain"],
    )
    def test_probability_is_per_party_product(self, protocol):
        topo = fixture_topology(protocol)
        for bits in itertools.product((0, 1), repeat=protocol.n):
            x = np.array(bits, dtype=np.uint8)
            dist = enumerate_executions(protocol, topo, x)
            total = sum(dist.values())
            assert total == pytest.approx(1.0, abs=1e-12)
            for key, prob in dist.items():
                product = 1.0
                for i in range(protocol.n):
                    product *= consistent_probability(protocol, i, int(x[i]), key)
                assert product == pytest.approx(prob, abs=1e-12)


class TestCoalitionViews:
    def test_empty_coalition(self):
        p = NoisyParityProtocol(flip_bias_for(1.0))
        e = run_drawn(p, fixture_topology(p), [1, 0, 1], derive_rng(1))
        view = coalition_view(e, [])
        assert view.inputs == () and view.tapes == () and view.received == ()

    def test_full_coalition_sees_all_receipts(self):
        p = NoisyParityProtocol(flip_bias_for(1.0))
        e = run_drawn(p, fixture_topology(p), [1, 0, 1], derive_rng(2))
        view = coalition_view(e, range(3))
        assert view.received == e.transcript
        assert view.inputs == e.inputs

    def test_lean_execution_has_no_views(self):
        e = randomized_response_distributed([1, 0, 1], 1.0, derive_rng(3), record=False)
        with pytest.raises(ValueError):
            coalition_view(e, [0])

    @pytest.mark.parametrize("member", [0.5, 1.9, 1.0, "1"], ids=["half", "one-point-nine", "float-one", "text"])
    def test_member_that_is_not_an_integer_raises(self, member):
        p = NoisyParityProtocol(flip_bias_for(1.0))
        e = run_drawn(p, fixture_topology(p), [1, 0, 1], derive_rng(2))
        with pytest.raises(TypeError):
            coalition_view(e, [member])
        with pytest.raises(TypeError):
            coalition_view_distribution(p, fixture_topology(p), [1, 0, 1], [member])

    def test_coalition_checked_before_any_send(self):
        p = _CountingExchange()
        with pytest.raises(ValueError, match="^party 7 out of range$"):
            coalition_view_distribution(p, complete_topology(3), [1, 0, 1], [1, 7])
        assert p.sends == []

    @pytest.mark.parametrize("member", [True, np.int64(1), np.uint8(1)], ids=["bool", "int64", "uint8"])
    def test_member_of_any_integer_type_accepted(self, member):
        p = NoisyParityProtocol(flip_bias_for(1.0))
        e = run_drawn(p, fixture_topology(p), [1, 0, 1], derive_rng(2))
        assert coalition_view(e, [member]) == coalition_view(e, [1])
        assert coalition_view(e, [member]).coalition == (1,)
        assert coalition_view_distribution(p, fixture_topology(p), [1, 0, 1], [member]) == (
            coalition_view_distribution(p, fixture_topology(p), [1, 0, 1], [1])
        )

    def test_aggregator_neighbors_see_all_its_messages(self):
        # every channel at party 0 ends inside the complement coalition, so
        # the coalition's received log pins down everything party 0 sent
        x = (derive_rng(4).random(16) < 0.5).astype(np.uint8)
        _, e = windowed_min_protocol(x, 1.0, 0.01, 2, 0.75, derive_rng(5))
        coalition = set(range(1, 16))
        view = coalition_view(e, coalition)
        sent_by_zero = [m for m in e.transcript if m.sender == 0]
        assert all(m.receiver in coalition for m in sent_by_zero)
        assert [m for m in view.received if m.sender == 0] == sent_by_zero


# Every compiler and factorization fixture of the experiments.
_ENUMERATION_FIXTURES = [
    RelayProtocol(keep_prob=0.8),
    NoisyParityProtocol(flip_bias_for(1.0)),
    ChainProtocol(flip_bias_for(0.5)),
    SharedModularSumProtocol(modulus=3),
]
_FIXTURE_IDS = ["relay", "parity", "chain", "shared-sum"]


class TestCompileToLocal:
    @pytest.mark.parametrize("protocol", _ENUMERATION_FIXTURES, ids=_FIXTURE_IDS)
    def test_output_distribution_preserved_exactly(self, protocol):
        # the original's law, and the compiled runs' outputs one tape at a time: keys, order and float bits
        topo = fixture_topology(protocol)
        compiled = compile_to_local(protocol, topo)
        assert compiled.rounds == protocol.rounds + 1
        for bits in itertools.product((0, 1), repeat=protocol.n):
            x = np.array(bits, dtype=np.uint8)
            local = list(compiled.output_distribution(x).items())
            assert local == list(output_distribution(protocol, topo, x).items())
            assert local == list(_per_tape_interactive(compiled, x, by_output=True).items())

    def test_every_message_travels_twice(self):
        protocol = NoisyParityProtocol(flip_bias_for(1.0))
        topo = fixture_topology(protocol)
        tapes = [True, False, True]
        e = run_protocol_with_tapes(protocol, topo, [1, 0, 1], tapes)
        compiled = compile_to_local(protocol, topo)
        _, view = run_interactive_with_tapes(
            compiled.parties, compiled.curator, [1, 0, 1], compiled.rounds, tapes
        )
        up = []
        for rnd, roundmsgs in enumerate(view.answers[:-1], start=1):
            for sender, answer in enumerate(roundmsgs):
                for receiver, symbol in answer:
                    up.append(Message(rnd, sender, receiver, symbol))
        down = []
        for rnd, roundq in enumerate(view.queries):
            for receiver, query in enumerate(roundq):
                for sender, symbol in query:
                    down.append(Message(rnd, sender, receiver, symbol))
        assert sorted(up) == sorted(e.transcript)
        assert sorted(down) == sorted(e.transcript)
        # the only extra record is the output announcement
        tag, value = view.answers[-1][protocol.output_party]
        assert tag == "output" and value == e.output

    def test_lonely_party_ratio_transfer(self):
        # party 0 is lonely on the chain; its neighbor set {1} separates it,
        # so the compiled curator view and the original coalition view give
        # identical per-view probability ratios when x_0 changes
        protocol = ChainProtocol(flip_bias_for(1.0))
        topo = fixture_topology(protocol)
        assert 0 in classify(topo, 1).lonely
        x = np.array([0, 1, 0, 1], dtype=np.uint8)
        xp = np.array([1, 1, 0, 1], dtype=np.uint8)
        coalition = (1,)

        local_a = _enumerate_compiled_parties(protocol, topo, x)
        local_b = _enumerate_compiled_parties(protocol, topo, xp)
        assert set(local_a) == set(local_b)

        def embedded_transcript(view_key):
            records = []
            for rnd, roundmsgs in enumerate(view_key[:-1], start=1):
                for sender, answer in enumerate(roundmsgs):
                    for receiver, symbol in answer:
                        records.append(Message(rnd, sender, receiver, symbol))
            return records

        local_ratios = set()
        for key in local_a:
            transcript = embedded_transcript(key)
            alpha_x = consistent_probability(protocol, 0, 0, transcript)
            alpha_xp = consistent_probability(protocol, 0, 1, transcript)
            ratio = local_a[key] / local_b[key]
            assert ratio == pytest.approx(alpha_x / alpha_xp, rel=1e-9)
            local_ratios.add(round(ratio, 9))

        dist_a = coalition_view_distribution(protocol, topo, x, coalition)
        dist_b = coalition_view_distribution(protocol, topo, xp, coalition)
        assert set(dist_a) == set(dist_b)
        coalition_ratios = set()
        for key in dist_a:
            received = list(key.received)
            alpha_x = consistent_probability(protocol, 0, 0, received)
            alpha_xp = consistent_probability(protocol, 0, 1, received)
            ratio = dist_a[key] / dist_b[key]
            assert ratio == pytest.approx(alpha_x / alpha_xp, rel=1e-9)
            coalition_ratios.add(round(ratio, 9))
        assert local_ratios == coalition_ratios

    @pytest.mark.parametrize("n_topology", [1, 4], ids=["smaller", "larger"])
    def test_topology_of_another_size_raises_at_compile_time(self, n_topology):
        # the engine rejects the pair too; the size check comes before the channel check
        protocol, topo = RelayProtocol(0.8), star_topology(n_topology)
        for run in (lambda: compile_to_local(protocol, topo), lambda: output_distribution(protocol, topo, [1, 0])):
            with pytest.raises(ValueError, match="protocol, topology, and input sizes must agree"):
                run()


def _per_tape_distribution(protocol, topology, x, key):
    """Reference: one public ``run_protocol_with_tapes`` call per joint tape."""
    spaces = [protocol.tape_space(i) for i in range(protocol.n)]
    out = {}
    for tapes, prob in joint_tapes(spaces):
        k = key(run_protocol_with_tapes(protocol, topology, x, tapes))
        out[k] = out.get(k, 0.0) + prob
    return out


def _per_tape_interactive(compiled, x, by_output=False):
    """Reference: one public ``run_interactive_with_tapes`` call per joint tape, keyed by view or by output."""
    out = {}
    for tapes, prob in joint_tapes([party.tape_space() for party in compiled.parties]):
        output, view = run_interactive_with_tapes(compiled.parties, compiled.curator, x, compiled.rounds, tapes)
        key = output if by_output else view.answers
        out[key] = out.get(key, 0.0) + prob
    return out


def _enumerate_compiled_parties(p, topo, x):
    """``enumerate_interactive`` on the compiled parties and curator of ``p``."""
    compiled = compile_to_local(p, topo)
    return enumerate_interactive(compiled.parties, compiled.curator, x, compiled.rounds)


class TestEnumerationMatchesPerTapeRuns:
    """Check-once enumeration equals a loop of public per-run calls: keys, order and float bits."""

    @pytest.mark.parametrize("protocol", _ENUMERATION_FIXTURES, ids=_FIXTURE_IDS)
    def test_every_input(self, protocol):
        topo = fixture_topology(protocol)
        compiled = compile_to_local(protocol, topo)
        coalitions = [(0,), tuple(range(1, protocol.n))]
        for bits in itertools.product((0, 1), repeat=protocol.n):
            x = np.array(bits, dtype=np.uint8)
            pairs = [
                (output_distribution(protocol, topo, x), _per_tape_distribution(protocol, topo, x, lambda e: e.output)),
                (enumerate_executions(protocol, topo, x), _per_tape_distribution(protocol, topo, x, lambda e: e.transcript)),
                (
                    enumerate_interactive(compiled.parties, compiled.curator, x, compiled.rounds),
                    _per_tape_interactive(compiled, x),
                ),
            ]
            for members in coalitions:
                pairs.append((
                    coalition_view_distribution(protocol, topo, x, members),
                    _per_tape_distribution(protocol, topo, x, lambda e: coalition_view(e, members)),
                ))
            for got, expected in pairs:
                assert list(got.items()) == list(expected.items())


class TestRunObjectsAreKeys:
    """Exact distributions are keyed by what one run builds: its answer history, or its ``CoalitionView``."""

    @pytest.mark.parametrize("protocol", _ENUMERATION_FIXTURES, ids=_FIXTURE_IDS)
    def test_every_input(self, protocol):
        topo = fixture_topology(protocol)
        compiled = compile_to_local(protocol, topo)
        local_spaces = [party.tape_space() for party in compiled.parties]
        spaces = [protocol.tape_space(i) for i in range(protocol.n)]
        members = tuple(range(1, protocol.n))
        for bits in itertools.product((0, 1), repeat=protocol.n):
            x = np.array(bits, dtype=np.uint8)
            answers = [
                run_interactive_with_tapes(compiled.parties, compiled.curator, x, compiled.rounds, tapes)[1].answers
                for tapes, _ in joint_tapes(local_spaces)
            ]
            keys = list(enumerate_interactive(compiled.parties, compiled.curator, x, compiled.rounds))
            # first-seen order; every key a tuple of per-round tuples, as one run stores it
            assert keys == list(dict.fromkeys(answers))
            assert all(type(key) is tuple and all(type(r) is tuple for r in key) for key in keys)

            views = [
                coalition_view(run_protocol_with_tapes(protocol, topo, x, tapes), members)
                for tapes, _ in joint_tapes(spaces)
            ]
            keys = list(coalition_view_distribution(protocol, topo, x, members))
            assert all(type(key) is CoalitionView for key in keys)
            assert keys == list(dict.fromkeys(views))


class _OneTapeBreaks(Protocol):
    """Four parties, one round, one declared channel (0, 1).

    Party 0 sends its bit to party 1 when its tape keeps (tape True); on the
    swap tape it sends ``bad_sends`` instead.  Tapes are uniform, so the
    first joint tape is clean and a later one breaks a channel rule.  With
    ``output_fails`` party 1's ``output`` raises when nothing reached it.
    """

    n, rounds, output_party = 4, 1, 1

    def __init__(self, bad_sends, output_fails=False):
        self.bad_sends = bad_sends
        self.output_fails = output_fails

    def channels(self):
        return frozenset({(0, 1)})

    def tape_space(self, i):
        return [(True, 0.5), (False, 0.5)]

    def send(self, i, x_i, tape, rnd, received):
        if i != 0:
            return {}
        return {1: x_i} if tape else dict(self.bad_sends)

    def output(self, x_i, tape, received):
        if self.output_fails and not received[0]:
            raise RuntimeError("nothing received")
        return received


class TestPerTapeChannelChecks:
    """A channel rule broken on one tape only is caught by every enumeration, with the per-run error."""

    @pytest.mark.parametrize(
        "bad_sends,output_fails,error,message",
        [
            # receivers 3 and 2 are undeclared; the error names the first in sorted order
            ({3: 0, 1: 0, 2: 0}, False, ObliviousnessViolationError, "round 1: undeclared channel 0->2"),
            ({}, False, ObliviousnessViolationError, "declared channels never used: [(0, 1)]"),
            # the unused channel is caught before the output party is asked
            ({}, True, ObliviousnessViolationError, "declared channels never used: [(0, 1)]"),
            ({1: 0, 0: 0}, False, ValueError, "channels must connect distinct parties"),
        ],
        ids=["undeclared", "unused", "unused-before-output", "self-send"],
    )
    def test_enumerations_raise_the_per_run_error(self, bad_sends, output_fails, error, message):
        protocol = _OneTapeBreaks(bad_sends, output_fails)
        topo = complete_topology(4)
        x = [1, 0, 1, 1]
        run_protocol_with_tapes(protocol, topo, x, [True] * 4)  # the first joint tape is clean
        with pytest.raises(error) as per_run:
            run_protocol_with_tapes(protocol, topo, x, [False, True, True, True])
        assert type(per_run.value) is error and str(per_run.value) == message
        for enumerate_fn in (
            output_distribution,
            enumerate_executions,
            lambda p, t, x: coalition_view_distribution(p, t, x, [1]),
            _enumerate_compiled_parties,
            lambda p, t, x: compile_to_local(p, t).output_distribution(x),
        ):
            with pytest.raises(error) as caught:
                enumerate_fn(protocol, topo, x)
            assert type(caught.value) is error and str(caught.value) == message


class _SendsOnKeep(Protocol):
    """Two parties, one round, channel (0, 1): each sends its bit to the other on tape True only; tapes are fair."""

    n, rounds, output_party = 2, 1, 1

    def channels(self):
        return frozenset({(0, 1)})

    def tape_space(self, i):
        return [(True, 0.5), (False, 0.5)]

    def send(self, i, x_i, tape, rnd, received):
        return {1 - i: x_i} if tape else {}

    def output(self, x_i, tape, received):
        return received


def test_an_unused_channel_is_caught_in_a_run_of_memo_hits():
    # (True, False) stores party 1's silent send and (False, True) party 0's, each in a clean run, so the
    # last joint tape, (False, False), is made only of stored sends and is the one run that leaves (0, 1) unused
    protocol, topo, x = _SendsOnKeep(), complete_topology(2), [1, 0]
    spaces = [protocol.tape_space(i) for i in range(2)]
    assert [tapes for tapes, _ in joint_tapes(spaces)] == [(True, True), (True, False), (False, True), (False, False)]
    for tapes in [(True, True), (True, False), (False, True)]:
        run_protocol_with_tapes(protocol, topo, x, tapes)
    message = "declared channels never used: [(0, 1)]"
    for run in (
        lambda: run_protocol_with_tapes(protocol, topo, x, [False, False]),
        lambda: output_distribution(protocol, topo, x),
        lambda: enumerate_executions(protocol, topo, x),
        lambda: coalition_view_distribution(protocol, topo, x, [1]),
        lambda: _enumerate_compiled_parties(protocol, topo, x),
        lambda: compile_to_local(protocol, topo).output_distribution(x),
    ):
        with pytest.raises(ObliviousnessViolationError) as caught:
            run()
        assert str(caught.value) == message


@pytest.mark.parametrize("keep_prob", [1.5, -0.2, math.nan])
def test_relay_rejects_a_keep_prob_outside_the_unit_interval(keep_prob):
    # each would give its tapes probabilities outside [0, 1], so distributions whose mass is not 1
    with pytest.raises(ValueError, match=r"^keep_prob must lie in \[0, 1\]"):
        RelayProtocol(keep_prob)


@pytest.mark.parametrize("keep_prob, output", [(0.0, 0), (1.0, 1)])
def test_relay_takes_either_end_of_the_unit_interval(keep_prob, output):
    p = RelayProtocol(keep_prob)
    topo = fixture_topology(p)
    assert output_distribution(p, topo, [1, 0]) == {output: 1.0}
    assert compile_to_local(p, topo).output_distribution([1, 0]) == {output: 1.0}


class _TwoFaults(Protocol):
    """Three parties, one round, declared channels (0, 1) and (1, 2).

    Party 0 sends to 1 and, with ``undeclared``, on the undeclared channel
    0->2; party 1's ``send`` raises ``error("boom")``; party 2 sends to 1.
    ``failed`` counts party 1's ``send`` calls.
    """

    n, rounds, output_party = 3, 1, 1

    def __init__(self, undeclared=True, error=RuntimeError):
        self.undeclared = undeclared
        self.error = error
        self.failed = 0

    def channels(self):
        return frozenset({(0, 1), (1, 2)})

    def tape_space(self, i):
        return [(0, 1.0)]

    def send(self, i, x_i, tape, rnd, received):
        if i == 1:
            self.failed += 1
            raise self.error("boom")
        if i == 0 and self.undeclared:
            return {1: x_i, 2: x_i}
        return {1: x_i}

    def output(self, x_i, tape, received):
        return received


class TestTwoFaultsInOneRound:
    """The compiled run checks each party's sends where the engine does, so the first fault wins in both."""

    def test_undeclared_channel_before_a_failing_send(self):
        protocol, topo, x = _TwoFaults(), complete_topology(3), [1, 0, 1]
        for run in (
            lambda: output_distribution(protocol, topo, x),
            lambda: compile_to_local(protocol, topo).output_distribution(x),
            lambda: _enumerate_compiled_parties(protocol, topo, x),
        ):
            with pytest.raises(ObliviousnessViolationError) as caught:
                run()
            assert str(caught.value) == "round 1: undeclared channel 0->2"

    def test_failing_send_alone_still_aborts_the_compiled_run(self):
        # a party's own error propagates as raised, from the engine and from the compiled run
        protocol, topo, x = _TwoFaults(undeclared=False), complete_topology(3), [1, 0, 1]
        for run in (
            lambda: output_distribution(protocol, topo, x),
            lambda: compile_to_local(protocol, topo).output_distribution(x),
            lambda: _enumerate_compiled_parties(protocol, topo, x),
        ):
            with pytest.raises(RuntimeError) as caught:
                run()
            assert type(caught.value) is RuntimeError and str(caught.value) == "boom"

    def test_a_party_type_error_runs_its_send_once_per_history(self):
        # one joint tape, so party 1 has one history: its TypeError propagates from the first call
        topo, x = complete_topology(3), [1, 0, 1]
        for run in (
            lambda p: output_distribution(p, topo, x),
            lambda p: _enumerate_compiled_parties(p, topo, x),
        ):
            protocol = _TwoFaults(undeclared=False, error=TypeError)
            with pytest.raises(TypeError) as caught:
                run(protocol)
            assert type(caught.value) is TypeError and str(caught.value) == "boom"
            assert protocol.failed == 1


class _CountingExchange(Protocol):
    """Three parties, two rounds, tapes 0, 1 and 2; records every ``send`` and ``output`` call.

    Round 1: every party sends (tape + x_i) mod 2 to both others.  Round 2:
    parties 1 and 2 send the xor of their round-1 inbox to party 0, which
    outputs the xor and the count of all it received.  Histories repeat
    across joint tapes, so the enumerations' caches are hit.  With
    ``listed`` every bit travels as a one-item list, which does not hash.
    """

    n, rounds = 3, 2

    def __init__(self, listed=False):
        self.wrap = (lambda b: [b]) if listed else (lambda b: b)
        self.sends = []
        self.outputs = []

    def channels(self):
        return frozenset({(0, 1), (0, 2), (1, 2)})

    def tape_space(self, i):
        return [(0, 0.5), (1, 0.25), (2, 0.25)]

    @staticmethod
    def _bits(inbox):
        return [sym[0] if isinstance(sym, list) else sym for _, sym in inbox]

    def send(self, i, x_i, tape, rnd, received):
        self.sends.append((i, tape, rnd, received))
        if rnd == 1:
            return {j: self.wrap((tape + x_i) % 2) for j in range(3) if j != i}
        return {} if i == 0 else {0: self.wrap(sum(self._bits(received[0])) % 2)}

    def output(self, x_i, tape, received):
        self.outputs.append((tape, received))
        bits = [b for inbox in received for b in self._bits(inbox)]
        return sum(bits) % 2, len(bits)


class _LastRoundList(Protocol):
    """Two parties, one round: party 0 sends the list [x_i, tape] to party 1, which outputs its inbox's length.

    Every run's output is 1, so only a key or history that holds the list
    can fail; tapes 0 and 1 are equally likely.
    """

    n, rounds, output_party = 2, 1, 1

    def channels(self):
        return frozenset({(0, 1)})

    def tape_space(self, i):
        return [(0, 0.5), (1, 0.5)]

    def send(self, i, x_i, tape, rnd, received):
        return {1: [x_i, tape]} if i == 0 else {}

    def output(self, x_i, tape, received):
        return len(received[0])


class _FirstSeen(Protocol):
    """Two parties, three rounds; party 0's tape is 0 or 1 and party 1's is None.

    Party 0 sends party 1 the equal symbols 1 (tape 0) or True (tape 1) in
    round 1, then its tape, which differs, in rounds 2 and 3.  Party 1
    records the type of the round-1 symbol it receives in round 3 and at its
    output, and outputs the last symbol.
    """

    n, rounds, output_party = 2, 3, 1

    def __init__(self):
        self.seen = []

    def channels(self):
        return frozenset({(0, 1)})

    def tape_space(self, i):
        return [(0, 0.5), (1, 0.5)] if i == 0 else [(None, 1.0)]

    def send(self, i, x_i, tape, rnd, received):
        if i == 1:
            if rnd == 3:
                self.seen.append(type(received[0][0][1]))
            return {}
        return {1: (True if tape else 1) if rnd == 1 else tape}

    def output(self, x_i, tape, received):
        self.seen.append(type(received[0][0][1]))
        return received[-1][0][1]


def _counted(parties, calls):
    """The parties, each recording (party, tape, queries) on every ``answer`` call."""
    def wrap(i, party):
        def answer(x_i, queries, tape):
            calls.append((i, tape, queries))
            return party.answer(x_i, queries, tape)

        return InteractiveParty(answer=answer, tape_space=party.tape_space)

    return [wrap(i, party) for i, party in enumerate(parties)]


class TestPerCallCaches:
    """Each enumeration runs a party once per distinct history; results equal the per-tape loop."""

    @pytest.mark.parametrize(
        "enumerate_fn,key",
        [(output_distribution, lambda e: e.output), (enumerate_executions, lambda e: e.transcript)],
        ids=["outputs", "transcripts"],
    )
    def test_send_runs_once_per_history(self, enumerate_fn, key):
        topo = complete_topology(3)
        for bits in itertools.product((0, 1), repeat=3):
            reference = _CountingExchange()
            expected = _per_tape_distribution(reference, topo, bits, key)
            histories = set(reference.sends)
            assert len(reference.sends) > len(histories)  # the per-tape loop repeats histories
            p = _CountingExchange()
            got = enumerate_fn(p, topo, bits)
            assert sorted(p.sends) == sorted(histories)  # every history once, and no other
            assert list(got.items()) == list(expected.items())

    def test_answer_runs_once_per_history(self):
        compiled = compile_to_local(_CountingExchange(), complete_topology(3))
        for bits in itertools.product((0, 1), repeat=3):
            calls, reference_calls = [], []
            got = enumerate_interactive(_counted(compiled.parties, calls), compiled.curator, bits, compiled.rounds)
            expected = _per_tape_interactive(replace(compiled, parties=_counted(compiled.parties, reference_calls)), bits)
            assert len(reference_calls) > len(set(reference_calls))
            assert sorted(calls) == sorted(set(reference_calls))
            assert list(got.items()) == list(expected.items())

    @pytest.mark.parametrize(
        "enumerate_fn,key",
        [(output_distribution, lambda e: e.output), (enumerate_executions, lambda e: e.transcript)],
        ids=["outputs", "transcripts"],
    )
    def test_output_runs_once_per_final_history(self, enumerate_fn, key):
        topo = complete_topology(3)
        for bits in itertools.product((0, 1), repeat=3):
            reference = _CountingExchange()
            expected = _per_tape_distribution(reference, topo, bits, key)
            histories = set(reference.outputs)
            assert len(reference.outputs) > len(histories)  # the per-tape loop repeats (tape, history) pairs
            p = _CountingExchange()
            got = enumerate_fn(p, topo, bits)
            assert sorted(p.outputs) == sorted(histories)  # every (tape, final history) once, and no other
            assert list(got.items()) == list(expected.items())

    @pytest.mark.parametrize(
        "enumerate_fn",
        [
            output_distribution,
            enumerate_executions,
            # party 0's view holds no list; the list still joins party 1's history
            lambda p, topo, x: coalition_view_distribution(p, topo, x, [0]),
            _enumerate_compiled_parties,
            lambda p, topo, x: compile_to_local(p, topo).output_distribution(x),
        ],
        ids=["outputs", "executions", "coalition", "interactive", "compiled-outputs"],
    )
    def test_last_round_list_symbols_raise(self, enumerate_fn):
        # the list never keys a send; it joins party 1's history after the last round
        p, x = _LastRoundList(), [1, 0]
        topo = fixture_topology(p)
        assert run_protocol_with_tapes(p, topo, x, [0, 1]).output == 1
        with pytest.raises(TypeError) as caught:
            enumerate_fn(p, topo, x)
        assert type(caught.value) is TypeError and str(caught.value) == "unhashable type: 'list'"

    def test_unhashable_symbols_raise(self):
        # a list symbol is a memo key in round 2, in the engine and in the compiled protocol alike
        topo = complete_topology(3)
        for bits in itertools.product((0, 1), repeat=3):
            with pytest.raises(TypeError) as original:
                output_distribution(_CountingExchange(listed=True), topo, bits)
            with pytest.raises(TypeError) as compiled:
                compile_to_local(_CountingExchange(listed=True), topo).output_distribution(bits)
            assert type(original.value) is type(compiled.value) is TypeError
            assert str(original.value) == str(compiled.value) == "unhashable type: 'list'"

    @pytest.mark.parametrize("enumerate_fn", [output_distribution, enumerate_executions], ids=["outputs", "executions"])
    def test_a_miss_receives_the_first_seen_history(self, enumerate_fn):
        # on tape 1 party 1 hits in round 2, on the history holding tape 0's 1, and misses in round 3
        p, x = _FirstSeen(), [1, 0]
        topo = fixture_topology(p)
        assert run_protocol_with_tapes(p, topo, x, [1, None]).output == 1
        assert p.seen == [bool, bool]  # a single run hands over its own symbol
        p.seen.clear()
        assert len(enumerate_fn(p, topo, x)) == 2
        assert p.seen == [int, int, int, int]

    def test_equal_symbols_share_an_entry(self):
        # 1 and True compare and hash equal, so a history holding either is sent on once
        class _Mixed(_CountingExchange):
            def send(self, i, x_i, tape, rnd, received):
                sends = super().send(i, x_i, tape, rnd, received)
                return {j: bool(b) if tape == 2 else b for j, b in sends.items()}

        topo = complete_topology(3)
        p = _Mixed()
        assert output_distribution(p, topo, [1, 0, 1]) == output_distribution(_CountingExchange(), topo, [1, 0, 1])
        assert len(p.sends) == len(set(p.sends))


_EXACT_ENUMERATIONS = pytest.mark.parametrize(
    "enumerate_fn",
    [
        output_distribution,
        enumerate_executions,
        lambda p, topo, x: coalition_view_distribution(p, topo, x, [1]),
        _enumerate_compiled_parties,
        lambda p, topo, x: compile_to_local(p, topo).output_distribution(x),
    ],
    ids=["outputs", "executions", "coalition", "interactive", "compiled-outputs"],
)


class TestSymbolsMustHash:
    """Every exact enumeration keys its memo on histories, so a list symbol raises the same ``TypeError``."""

    @_EXACT_ENUMERATIONS
    def test_list_symbols_raise_after_the_round_1_sends(self, enumerate_fn):
        p = _CountingExchange(listed=True)
        with pytest.raises(TypeError) as caught:
            enumerate_fn(p, complete_topology(3), [1, 0, 1])
        assert type(caught.value) is TypeError and str(caught.value) == "unhashable type: 'list'"
        # the first joint tape's round-1 sends run; party 0's round-2 history does not hash
        assert p.sends == [(0, 0, 1, ()), (1, 0, 1, ()), (2, 0, 1, ())]

    def test_a_single_run_sends_list_symbols(self):
        # no memo: the lists travel as sent, and the run matches the one with plain bits
        topo, x, tapes = complete_topology(3), [1, 0, 1], [0, 1, 2]
        listed = run_protocol_with_tapes(_CountingExchange(listed=True), topo, x, tapes)
        plain = run_protocol_with_tapes(_CountingExchange(), topo, x, tapes)
        assert listed.output == plain.output and listed.n_messages == plain.n_messages == 8
        assert list(listed.transcript.columns[3]) == [[b] for b in plain.transcript.columns[3]]


class TestTapesMustHash:
    """Every exact enumeration keys its memo on (party, tape, history), so tapes obey the symbols' rule."""

    class _NoSpace(_CountingExchange):
        def tape_space(self, i):
            return None if i == 1 else super().tape_space(i)

    class _ListTapes(_CountingExchange):
        def tape_space(self, i):
            return [([tape], prob) for tape, prob in super().tape_space(i)]

        def send(self, i, x_i, tape, rnd, received):
            return super().send(i, x_i, tape[0], rnd, received)

    class _EqualTapes(_CountingExchange):
        def tape_space(self, i):
            return [(0, 0.5), (1, 0.25), (True, 0.25)]

    @_EXACT_ENUMERATIONS
    def test_missing_space_names_the_party_before_any_send(self, enumerate_fn):
        p = self._NoSpace()
        with pytest.raises(ValueError, match="^party 1 has no finite tape space$"):
            enumerate_fn(p, complete_topology(3), [1, 0, 1])
        assert p.sends == []

    @_EXACT_ENUMERATIONS
    def test_list_tapes_raise_before_any_send(self, enumerate_fn):
        # party 0's first key holds its list tape
        p = self._ListTapes()
        with pytest.raises(TypeError) as caught:
            enumerate_fn(p, complete_topology(3), [1, 0, 1])
        assert type(caught.value) is TypeError and str(caught.value) == "unhashable type: 'list'"
        assert p.sends == []

    def test_a_single_run_takes_list_tapes(self):
        topo, x = complete_topology(3), [1, 0, 1]
        listed = run_protocol_with_tapes(self._ListTapes(), topo, x, [[0], [1], [2]])
        plain = run_protocol_with_tapes(_CountingExchange(), topo, x, [0, 1, 2])
        assert listed.output == plain.output and listed.transcript == plain.transcript
        assert listed.tapes == ([0], [1], [2])
        compiled = compile_to_local(self._ListTapes(), topo)
        output, _ = run_interactive_with_tapes(compiled.parties, compiled.curator, x, compiled.rounds, [[0], [1], [2]])
        assert output == plain.output

    @pytest.mark.parametrize(
        "enumerate_fn,key",
        [(output_distribution, lambda e: e.output), (enumerate_executions, lambda e: e.transcript)],
        ids=["outputs", "transcripts"],
    )
    def test_equal_tapes_share_an_entry(self, enumerate_fn, key):
        # 1 and True compare and hash equal, so the tape True never sends: tape 1's entry serves it
        topo, x = complete_topology(3), [1, 0, 1]
        reference = self._EqualTapes()
        expected = _per_tape_distribution(reference, topo, x, key)
        assert any(tape is True for _, tape, _, _ in reference.sends)
        p = self._EqualTapes()
        got = enumerate_fn(p, topo, x)
        assert list(got.items()) == list(expected.items())
        assert all(type(tape) is int for _, tape, _, _ in p.sends)
        assert len(p.sends) == len(set(p.sends))

    def test_equal_tapes_share_an_answer(self):
        compiled = compile_to_local(self._EqualTapes(), complete_topology(3))
        x = [1, 0, 1]
        calls, reference_calls = [], []
        got = enumerate_interactive(_counted(compiled.parties, calls), compiled.curator, x, compiled.rounds)
        expected = _per_tape_interactive(replace(compiled, parties=_counted(compiled.parties, reference_calls)), x)
        assert list(got.items()) == list(expected.items())
        assert any(tape is True for _, tape, _ in reference_calls)
        assert all(type(tape) is int for _, tape, _ in calls)
        assert len(calls) == len(set(calls))


class TestConsistentProbabilityInput:
    def test_party_out_of_range_raises(self):
        with pytest.raises(ValueError, match="party 7 out of range"):
            consistent_probability(RelayProtocol(0.8), 7, 1, [])

    @pytest.mark.parametrize("i", [1.5, 0.0, "0"], ids=["one-and-a-half", "float-zero", "text"])
    def test_party_that_is_not_an_integer_raises(self, i):
        with pytest.raises(TypeError):
            consistent_probability(RelayProtocol(0.8), i, 0, [Message(1, 0, 1, 1)])

    @pytest.mark.parametrize("i", [True, np.uint8(1), np.int64(1)], ids=["bool", "uint8", "int64"])
    def test_party_of_any_integer_type_accepted(self, i):
        assert consistent_probability(RelayProtocol(0.8), i, 0, [Message(1, 0, 1, 1)]) == 1.0

    @pytest.mark.parametrize("rnd", [0, 2], ids=["round-0", "past-last-round"])
    def test_message_round_out_of_range_raises(self, rnd):
        with pytest.raises(ValueError, match=f"message round {rnd} outside 1..1"):
            consistent_probability(RelayProtocol(0.8), 0, 1, [Message(rnd, 0, 1, 1)])

    @pytest.mark.parametrize(
        "sender, receiver", [(7, 1), (0, 2), (-1, 0)], ids=["sender-past-n", "receiver-past-n", "negative-sender"]
    )
    def test_message_party_out_of_range_raises(self, sender, receiver):
        # a message naming no party of the protocol was ignored, and party 1 reproduced the rest
        with pytest.raises(ValueError, match=f"message {sender}->{receiver} names a party outside 0..1"):
            consistent_probability(RelayProtocol(0.8), 1, 1, [Message(1, sender, receiver, 1)])

    @pytest.mark.parametrize("x_i", [2, -1, 0.5, math.nan], ids=["two", "minus-one", "half", "nan"])
    def test_non_bit_input_raises(self, x_i):
        with pytest.raises(ValueError, match="of party 0 is not 0 or 1"):
            consistent_probability(RelayProtocol(0.8), 0, x_i, [Message(1, 0, 1, 1)])

    def test_non_bit_input_raises_before_any_replay(self):
        p = _RecordingRelay()
        with pytest.raises(ValueError, match="input bit 2"):
            consistent_probability(p, 0, 2, [Message(1, 0, 1, 2)])
        assert p.seen == []

    @pytest.mark.parametrize("x_i", [True, np.uint8(1), np.int64(1)], ids=["bool", "uint8", "int64"])
    def test_bit_of_any_integer_type_accepted(self, x_i):
        assert consistent_probability(RelayProtocol(0.8), 0, x_i, [Message(1, 0, 1, 1)]) == 0.8

    def test_valid_transcript_unchanged(self):
        p = RelayProtocol(0.8)
        assert consistent_probability(p, 0, 1, [Message(1, 0, 1, 1)]) == 0.8
        assert consistent_probability(p, 0, 1, [Message(1, 0, 1, 0)]) == pytest.approx(0.2)


class TestRRDistributed:
    def test_exact_output_distribution_matches_local(self):
        n, eps = 6, 1.0
        x = np.array([1, 0, 1, 1, 0, 0], dtype=np.uint8)
        protocol = ds.RRStarProtocol(n, eps)
        dist = output_distribution(protocol, star_topology(n), x)
        params = flip_bias_for(eps)
        counts = rr_count_distribution(x, params)
        for k, p in counts.items():
            est = rr_debias(float(k), n, params)
            assert dist[est] == pytest.approx(p, abs=1e-12)

    def test_sampled_distribution_matches_local(self):
        n, eps, trials = 12, 1.0, 20_000
        x = np.zeros(n, dtype=np.uint8)
        x[: n // 2] = 1
        rng_d, rng_l = derive_rng(34), derive_rng(35)
        dist_outputs = np.array(
            [
                randomized_response_distributed(x, eps, rng_d, record=False).output
                for _ in range(trials)
            ]
        )
        local_outputs = np.array(
            [randomized_response_sum(x, eps, rng_l)[0] for _ in range(trials)]
        )
        support = np.unique(np.concatenate([dist_outputs, local_outputs]))
        table = np.array(
            [
                [(dist_outputs == v).sum() for v in support],
                [(local_outputs == v).sum() for v in support],
            ]
        )
        _, pvalue, _, _ = scipy_stats.chi2_contingency(table)
        assert pvalue > 0.001

    def test_message_count(self):
        e = randomized_response_distributed(np.ones(100, dtype=np.uint8), 1.0, derive_rng(0))
        assert e.n_messages == 198
        assert e.rounds == 2

    def test_single_party(self):
        e = randomized_response_distributed([1], 1.0, derive_rng(36))
        assert e.n_messages == 0
        params = flip_bias_for(1.0)
        assert e.output in (rr_debias(0.0, 1, params), rr_debias(1.0, 1, params))

    @pytest.mark.parametrize("record", [False, True], ids=["lean", "recorded"])
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 1000])
    def test_equals_the_engine_reference(self, n, record):
        # the vectorized run against RRStarProtocol on the engine, tapes drawn per party
        eps = 0.7
        for seed in range(8):
            x = np.random.default_rng([90, n, seed]).integers(0, 2, n).astype(np.uint8)
            rng_v, rng_e = derive_rng(90, seed), derive_rng(90, seed)
            e = randomized_response_distributed(x, eps, rng_v, record=record)
            ref = run_drawn(RRStarProtocol(n, eps), star_topology(n), x, rng_e, record=record)
            assert rng_v.bit_generator.state == rng_e.bit_generator.state
            assert type(e.output) is float and e.output == ref.output
            assert (e.n, e.rounds, e.n_messages) == (ref.n, ref.rounds, ref.n_messages) == (n, 2, 2 * (n - 1))
            assert e.inputs == ref.inputs
            if not record:
                assert e.transcript is e.tapes is ref.transcript is ref.tapes is None
                continue
            assert type(e.tapes) is tuple and set(map(type, e.tapes)) <= {bool}
            assert e.tapes == ref.tapes
            for col, ref_col in zip(e.transcript.columns, ref.transcript.columns):
                assert type(col) is tuple and col == ref_col
                assert list(map(type, col)) == list(map(type, ref_col))
            assert execution_records(e) == execution_records(ref)

    def test_announcements_are_one_object(self):
        # the writer makes one text per distinct symbol object
        e = randomized_response_distributed([1, 0, 1, 1], 1.0, derive_rng(91))
        announced = e.transcript.columns[3][3:]
        assert len(announced) == 3 and all(y is e.output for y in announced)

    @pytest.mark.parametrize(
        "x, eps, message",
        [
            ([], 1.0, "need at least one party"),
            ([2], 1.0, "every element must be 0 or 1"),
            ([1, 0], 0.0, "eps must be positive"),
            ([1, 0], -1.0, "eps must be positive"),
            ([1, 0], math.nan, "eps must be positive"),
        ],
    )
    def test_rejects_before_any_draw(self, x, eps, message):
        rng = derive_rng(92)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^{message}$"):
            randomized_response_distributed(x, eps, rng)
        assert rng.bit_generator.state == state

    def test_party_count_goes_through_operator_index(self):
        with pytest.raises(TypeError):
            RRStarProtocol(2.5, 1.0)
        p = RRStarProtocol(np.int64(4), 1.0)
        assert type(p.n) is int and p.n == 4
        assert p.channels() == star_topology(4).channels


class AggregatorTwin(Protocol):
    """``gaussian_aggregator_sum`` on the engine: each party's tape is its recorded noise.

    Round 1: party i > 0 sends x_i + tape to party 0.  Round 2: party 0 sums
    its own value and those it received with numpy, in party order, as the
    vectorized run sums ``y``, and announces the sum to everyone.
    """

    rounds = 2

    def __init__(self, n):
        self.n = n

    def channels(self):
        return star_topology(self.n).channels

    def send(self, i, x_i, tape, rnd, received):
        if rnd == 1:
            return {} if i == 0 else {0: x_i + tape}
        if i == 0:
            estimate = self.output(x_i, tape, received)
            return {j: estimate for j in range(1, self.n)}
        return {}

    def output(self, x_i, tape, received):
        return float(np.array([x_i + tape] + [y for _, y in received[0]]).sum())


class TestGaussianAggregator:
    def test_message_count(self):
        _, e = gaussian_aggregator_sum(np.ones(64, dtype=np.uint8), 1.0, derive_rng(0))
        assert e.n_messages == 126 and e.rounds == 2

    def test_needs_two_parties(self):
        with pytest.raises(ValueError):
            gaussian_aggregator_sum([1], 1.0, derive_rng(0))

    def test_total_and_residual_noise_variance(self):
        n, eps, trials = 100, 1.0, 10_000
        x = np.zeros(n, dtype=np.uint8)
        total = np.empty(trials)
        residual = np.empty(trials)
        for k in range(trials):
            est, e = gaussian_aggregator_sum(x, eps, derive_rng(37, k))
            noise = np.array(e.tapes)
            total[k] = est
            residual[k] = est - noise[: n // 2].sum()
        full_var = 6 * math.log(n) ** 2 / eps**2
        assert abs(np.var(total) - full_var) / full_var < 0.05
        # a coalition of n/2 parties can subtract its own noise, no more
        assert abs(np.var(residual) - full_var / 2) / (full_var / 2) < 0.05

    @pytest.mark.parametrize("n", [2, 16, 256, 10_000])
    def test_equals_its_engine_twin(self, n):
        # the engine run on the recorded noise rebuilds the vectorized execution
        for seed in range(5):
            x = np.random.default_rng([93, n, seed]).integers(0, 2, n).astype(np.uint8)
            estimate, e = gaussian_aggregator_sum(x, 1.0, derive_rng(93, seed))
            twin = run_protocol_with_tapes(AggregatorTwin(n), star_topology(n), x, e.tapes)
            assert type(twin.output) is float and twin.output == e.output == estimate
            assert twin.n_messages == e.n_messages == 2 * (n - 1)
            assert twin.transcript == e.transcript
            for col, twin_col in zip(e.transcript.columns, twin.transcript.columns):
                assert list(map(type, col)) == list(map(type, twin_col))
            assert execution_records(twin) == execution_records(e)
            assert coalition_view(twin, (0,)) == coalition_view(e, (0,))

    def test_coalition_sees_submissions_only(self):
        x = np.array([1, 0, 1, 1], dtype=np.uint8)
        _, e = gaussian_aggregator_sum(x, 1.0, derive_rng(38))
        view = coalition_view(e, [0])
        symbols = [m.symbol for m in view.received if m.round == 1]
        assert len(symbols) == 3
        assert all(isinstance(s, float) for s in symbols)


_Q = DEFAULT_MODULUS
# residues near q, and pairs whose sum is near 2^64 (2^63 + 2^63 wraps to 0)
_RESIDUES = st.one_of(
    st.integers(0, _Q - 1),
    st.sampled_from([0, 1, 2**63 - 1, 2**63, 2**63 + 1, _Q - 2, _Q - 1, 2**64 - _Q]),
)
_RESIDUE_ARRAYS = st.sampled_from([(), (0,), (1,), (7,), (2, 3), (3, 0, 2), (2, 2, 2)]).flatmap(
    lambda shape: st.lists(_RESIDUES, min_size=math.prod(shape), max_size=math.prod(shape)).map(
        lambda values: np.array(values, dtype=np.uint64).reshape(shape)
    )
)


def _fixed_point_round_trip(values, scale, parts, rng):
    """Encode at ``scale``, share into ``parts``, sum the shares and decode."""
    residues = ds._encode_mod_q(np.rint(np.asarray(values) * scale))
    shares = share_mod_q(residues, parts, rng)
    assert shares.shape == residues.shape + (parts,)
    return ds._decode_mod_q(sum_mod_q(shares, -1)) / scale


class TestAdditiveSharing:
    def test_default_modulus_is_smallest_prime_above_2_63(self):
        sympy = pytest.importorskip("sympy")
        assert DEFAULT_MODULUS > 2**63
        assert sympy.isprime(DEFAULT_MODULUS)
        assert sympy.nextprime(2**63) == DEFAULT_MODULUS

    def test_wrap_aware_addition(self):
        # sums that wrap past 2^64 still reduce correctly mod q
        q = DEFAULT_MODULUS
        a = np.array([q - 1, q - 1, 0, 123, 2**63], dtype=np.uint64)
        b = np.array([q - 1, 1, 0, 456, 2**63], dtype=np.uint64)
        got = ds._add_mod_q(a, b)
        expected = [(int(x) + int(y)) % q for x, y in zip(a, b)]
        assert [int(v) for v in got] == expected

    def test_encode_decode_mod_q(self):
        half = (DEFAULT_MODULUS - 1) // 2
        values = np.array([0, 1, -1, 12345, -98765, half, -half], dtype=np.int64)
        assert np.array_equal(ds._decode_mod_q(ds._encode_mod_q(values)), values)
        floats = np.array([0.0, -3.0, 2.0**62, -(2.0**62)])
        assert np.array_equal(ds._decode_mod_q(ds._encode_mod_q(floats)), floats.astype(np.int64))

    def test_shares_of_zero_sum_to_zero(self):
        for parts in (1, 2, 5):
            shares = share_mod_q(np.zeros(1, dtype=np.uint64), parts, derive_rng(parts))
            assert shares.shape == (1, parts)
            assert sum(map(int, shares[0])) % DEFAULT_MODULUS == 0
            assert sum_mod_q(shares, -1).tolist() == [0]

    def test_fixed_point_round_trip(self):
        assert fixed_point_scale(100) == 100
        got = _fixed_point_round_trip([3.14159], fixed_point_scale(100), 4, derive_rng(39))
        assert got[0] == pytest.approx(3.14, abs=1e-12)

    def test_negative_values_round_trip(self):
        got = _fixed_point_round_trip([-2.71828], 10_000, 3, derive_rng(40))
        assert got[0] == pytest.approx(-2.7183, abs=1e-12)

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            _fixed_point_round_trip([1e30], 10_000, 2, derive_rng(0))

    @pytest.mark.parametrize(
        "values",
        [
            np.array([2.0**70]),
            np.array([1.0, -(2.0**63)]),
            np.array([np.nan]),
            np.array([0.0, np.inf]),
            np.array([-np.inf]),
            np.array([(DEFAULT_MODULUS - 1) // 2 + 1]),
            np.array([np.iinfo(np.int64).min]),
        ],
    )
    def test_encode_rejects_non_finite_and_out_of_range(self, values):
        # each of these used to wrap in the int64 cast to a small residue
        with pytest.raises(ValueError, match="not finite or overflows"):
            ds._encode_mod_q(values)

    def test_residues_outside_the_field_rejected(self):
        with pytest.raises(ValueError, match="residues must lie"):
            share_mod_q(np.array([DEFAULT_MODULUS], dtype=np.uint64), 2, derive_rng(0))
        with pytest.raises(ValueError, match="residues must lie"):
            sum_mod_q(np.array([[1], [2**64 - 1]], dtype=np.uint64), 0)
        with pytest.raises(ValueError, match="parts"):
            share_mod_q(np.zeros(1, dtype=np.uint64), 0, derive_rng(0))
        # a float was truncated by the uint64 cast, and a negative Python int raised OverflowError
        for residues in ([1.7, 2], np.array([1.0, 2.0]), [-1, 2], np.array([-1, 2]), [1, 2**64]):
            with pytest.raises(ValueError, match="residues must lie"):
                sum_mod_q(residues, 0)
        with pytest.raises(ValueError, match="residues must lie"):
            share_mod_q([1.5], 2, derive_rng(0))

    def test_python_int_residues_are_taken_exactly(self):
        # numpy makes a float array of [1, 2**63]; the sum is exact all the same
        assert sum_mod_q([1, 2**63], 0).tolist() == (1 + 2**63) % DEFAULT_MODULUS
        assert sum_mod_q(np.array([[1, 2], [3, 4]]), 0).tolist() == [4, 6]

    def test_empty_sum_is_zero(self):
        assert sum_mod_q(np.zeros((0, 3), dtype=np.uint64), 0).tolist() == [0, 0, 0]
        assert sum_mod_q(np.zeros((2, 0), dtype=np.uint64), 1).tolist() == [0, 0]

    def test_one_part_is_the_residue_and_draws_nothing(self):
        residues = np.array([0, 5, DEFAULT_MODULUS - 1], dtype=np.uint64)
        rng, twin = derive_rng(7), derive_rng(7)
        shares = share_mod_q(residues, 1, rng)
        assert shares.dtype == np.uint64 and shares.tolist() == [[0], [5], [DEFAULT_MODULUS - 1]]
        assert rng.random() == twin.random()

    @given(_RESIDUE_ARRAYS, st.integers(1, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_share_rows_sum_to_the_residue(self, residues, parts, seed):
        shares = share_mod_q(residues, parts, derive_rng(seed))
        assert shares.dtype == np.uint64 and shares.shape == residues.shape + (parts,)
        rows = shares.reshape(-1, parts).tolist()
        assert all(s < DEFAULT_MODULUS for row in rows for s in row)
        assert [sum(row) % DEFAULT_MODULUS for row in rows] == residues.ravel().tolist()

    @given(_RESIDUE_ARRAYS)
    @settings(max_examples=200, deadline=None)
    def test_sum_matches_python_ints_on_every_axis(self, residues):
        for axis in range(-residues.ndim, residues.ndim):
            got = sum_mod_q(residues, axis)
            want = np.moveaxis(residues.astype(object), axis, 0).sum(axis=0) % DEFAULT_MODULUS
            assert got.dtype == np.uint64 and got.shape == np.shape(want)
            assert got.tolist() == np.asarray(want).tolist()

    def test_closing_share_marginal_is_uniform(self):
        trials = 100_000
        residues = ds._encode_mod_q(np.ones(trials))
        closing = share_mod_q(residues, 3, derive_rng(41))[:, -1].astype(float)
        buckets = np.floor(closing * 64.0 / DEFAULT_MODULUS).astype(int)
        counts = np.bincount(buckets, minlength=64)
        _, pvalue = scipy_stats.chisquare(counts)
        assert pvalue > 0.001

    def test_any_t_shares_hide_the_secret(self):
        # exhaustive over a tiny field: the joint law of any 2 of 3 shares
        # is the same for every secret
        q = 17

        def joint_counts(secret, keep):
            counts: Dict = {}
            for u1, u2 in itertools.product(range(q), range(q)):
                shares = (u1, u2, (secret - u1 - u2) % q)
                key = tuple(shares[i] for i in keep)
                counts[key] = counts.get(key, 0) + 1
            return counts

        for keep in [(0, 1), (0, 2), (1, 2)]:
            assert joint_counts(3, keep) == joint_counts(7, keep)

    def test_reconstruct_from_protocol_shares(self):
        values = np.array([0.0, 1.5, -4.2, 12.3])
        got = _fixed_point_round_trip(values, 10, 6, derive_rng(42))
        assert got.tolist() == pytest.approx([round(v * 10) / 10 for v in values], abs=1e-12)


_BAD_EPS = [1e-160, 1e-170, math.nan, math.inf, 0.0, -1.0]


class TestInvalidEps:
    """eps must be finite and positive with a finite noise variance, or a ValueError names it."""

    @pytest.mark.parametrize("eps", _BAD_EPS)
    def test_variances_raise(self, eps):
        with pytest.raises(ValueError, match="eps"):
            gaussian_noise_variance(4096, eps)
        with pytest.raises(ValueError, match="eps"):
            noise_base_variance(eps, 0.01)

    @pytest.mark.parametrize("eps", _BAD_EPS)
    def test_protocols_raise(self, eps):
        x = np.zeros(4096, dtype=np.uint8)
        with pytest.raises(ValueError, match="eps"):
            gaussian_aggregator_sum(x, eps, derive_rng(0), record=False)
        with pytest.raises(ValueError, match="eps"):
            windowed_min_protocol(x, eps, 0.01, 7, 0.75, derive_rng(0), record=False)

    def test_overflowing_variance_raises_and_large_finite_one_passes(self):
        with pytest.raises(ValueError, match="eps"):
            noise_base_variance(1.5e-154, 0.01)  # 10.6 / 2.25e-308 overflows
        r_base = 2.0 * math.log(200.0) / 1e-306
        assert noise_base_variance(1e-153, 0.01) == pytest.approx(r_base, rel=1e-12)
        sigma2 = 6.0 * math.log(4096) ** 2 / (4096 * 1e-306)
        assert gaussian_noise_variance(4096, 1e-153) == pytest.approx(sigma2, rel=1e-12)
        x = np.zeros(4096, dtype=np.uint8)
        est, _ = gaussian_aggregator_sum(x, 1e-153, derive_rng(0), record=False)
        assert math.isfinite(est)


class TestWindowedMin:
    def test_sizes(self):
        assert windowed_min_sizes(4096, 0.75) == (512, 8)
        assert windowed_min_sizes(16, 0.75) == (8, 2)
        with pytest.raises(ValueError):
            windowed_min_sizes(100, 0.75)

    @pytest.mark.parametrize("n", [0, -16])
    def test_sizes_reject_non_positive_n(self, n):
        # 0 used to raise ZeroDivisionError, and -16 a TypeError from rounding a complex power
        with pytest.raises(ValueError, match="n must be positive"):
            windowed_min_sizes(n, 0.75)

    def test_zero_noise_equals_gridded(self):
        rng = derive_rng(43)
        for k in range(100):
            x = (rng.random(256) < 0.5).astype(np.uint8)
            est, _ = windowed_min_protocol(
                x, 1.0, 0.01, 3, 0.75, derive_rng(44, k), zero_noise=True, record=False
            )
            assert est == min_window_weight_gridded(x, 64, 4)

    def test_zero_noise_large_instance(self):
        rng = derive_rng(45)
        for k in range(20):
            x = (rng.random(4096) < 0.3).astype(np.uint8)
            est, _ = windowed_min_protocol(
                x, 1.0, 0.01, 7, 0.75, derive_rng(46, k), zero_noise=True, record=False
            )
            assert est == min_window_weight_gridded(x, 512, 8)

    def test_message_count_formula(self):
        n, t = 256, 7
        x = np.zeros(n, dtype=np.uint8)
        _, e = windowed_min_protocol(x, 1.0, 0.01, t, 0.75, derive_rng(47))
        # (t+1)(n-1) sharing + t * (n/interval) aggregation + (n-1) output
        assert e.n_messages == 8 * 255 + 7 * 64 + 255 == 2743
        assert e.rounds == 3

    def test_requires_2t_below_n(self):
        with pytest.raises(ValueError):
            windowed_min_protocol(np.zeros(16, dtype=np.uint8), 1.0, 0.01, 8, 0.75, derive_rng(0))

    @pytest.mark.parametrize("record", [False, True])
    @pytest.mark.parametrize("t", [2.5, 2.0])
    def test_non_integer_t_raises_before_any_draw(self, t, record):
        rng = derive_rng(63)
        before = rng.bit_generator.state
        with pytest.raises(TypeError):
            windowed_min_protocol(
                np.zeros(16, dtype=np.uint8), 1.0, 0.01, t, 0.75, rng, record=record
            )
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("record", [False, True])
    def test_numpy_integer_t_is_accepted(self, record):
        x = (derive_rng(64).random(16) < 0.5).astype(np.uint8)
        est, _ = windowed_min_protocol(
            x, 1.0, 0.01, np.int64(2), 0.75, derive_rng(65), record=record
        )
        assert est == windowed_min_protocol(x, 1.0, 0.01, 2, 0.75, derive_rng(65), record=record)[0]

    @pytest.mark.parametrize("zero_noise", [False, True])
    @pytest.mark.parametrize("t", [0, 1, 3, 7])
    @pytest.mark.parametrize("n", [16, 256, 4096])
    def test_lean_and_recorded_estimates_agree(self, n, t, zero_noise):
        # recording adds the messages and tapes, not another estimate, and
        # the share draws happen only when recording
        sigma = math.sqrt(2.0 * noise_base_variance(1.0, 0.01) / n)
        for seed in range(3):
            x = (derive_rng(66, n, seed).random(n) < 0.5).astype(np.uint8)
            lean_rng = derive_rng(67, n, t, seed)
            lean, e = windowed_min_protocol(
                x, 1.0, 0.01, t, 0.75, lean_rng, zero_noise=zero_noise, record=False
            )
            recorded, _ = windowed_min_protocol(
                x, 1.0, 0.01, t, 0.75, derive_rng(67, n, t, seed), zero_noise=zero_noise
            )
            assert lean == recorded == e.output
            noise_only = derive_rng(67, n, t, seed)
            if not zero_noise:
                noise_only.normal(0.0, sigma, n)
            assert lean_rng.bit_generator.state == noise_only.bit_generator.state

    def test_party_0_reconstructs_the_output_from_its_messages(self):
        # party 0 adds its own per-interval share sums to the t round-2 sums
        # it receives; the decoded totals carry only their interval's noise
        n, t, eps, delta, runs = 256, 3, 1.0, 0.01, 200
        window, interval = windowed_min_sizes(n, 0.75)
        n_intervals, scale = n // interval, fixed_point_scale(n)
        rng = derive_rng(68)
        residuals = np.empty((runs, n_intervals))
        for k in range(runs):
            x = (rng.random(n) < 0.5).astype(np.uint8)
            _, e = windowed_min_protocol(x, eps, delta, t, 0.75, derive_rng(69, k))
            own_shares = np.array([tape[1][0] for tape in e.tapes], dtype=np.uint64)
            own = sum_mod_q(own_shares.reshape(n_intervals, interval), 1)
            received = [y for r, _, v, y in e.transcript.rows() if r == 2 and v == 0]
            assert len(received) == t * n_intervals
            parts = np.vstack([own, np.array(received, dtype=np.uint64).reshape(t, n_intervals)])
            totals = ds._decode_mod_q(sum_mod_q(parts, 0)).astype(float) / scale
            window_sums = np.convolve(totals, np.ones(window // interval), mode="valid")
            assert float(window_sums.min()) == e.output
            residuals[k] = totals - x.reshape(n_intervals, interval).sum(axis=1)
        sigma = math.sqrt(2.0 * noise_base_variance(eps, delta) * interval / n)
        assert sigma == pytest.approx(0.5755, abs=1e-4)
        standard_error = sigma / math.sqrt(2 * residuals.size)
        assert abs(residuals.std() - sigma) <= 4 * standard_error

    def test_tiny_eps_raises_instead_of_wrapping(self):
        # noise of sd ~7e18 scales past 2^62 at scale 10^4; the int64 cast
        # used to wrap it (with a RuntimeWarning) into an estimate of ~1.48
        x = (derive_rng(61).random(4096) < 0.5).astype(np.uint8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="not finite or overflows"):
                windowed_min_protocol(x, 1e-20, 0.01, 7, 0.75, derive_rng(62), record=False)

    def test_fixed_communication_across_seeds(self):
        x = (derive_rng(48).random(16) < 0.5).astype(np.uint8)
        patterns = set()
        for seed in range(50):
            _, e = windowed_min_protocol(x, 1.0, 0.01, 2, 0.75, derive_rng(49, seed))
            patterns.add(tuple((m.round, m.sender, m.receiver) for m in e.transcript))
        assert len(patterns) == 1

    def test_replay_determinism(self):
        x = (derive_rng(50).random(16) < 0.5).astype(np.uint8)
        _, e1 = windowed_min_protocol(x, 1.0, 0.01, 2, 0.75, derive_rng(51))
        _, e2 = windowed_min_protocol(x, 1.0, 0.01, 2, 0.75, derive_rng(51))
        assert e1.transcript == e2.transcript and e1.output == e2.output

    def test_noise_pipeline_variances(self):
        # per-party noise is N(0, 2R/n); interval sums then carry variance
        # 2R * interval/n and the full string 2R
        n, t, eps, delta = 256, 3, 1.0, 0.01
        r_base = noise_base_variance(eps, delta)
        interval = windowed_min_sizes(n, 0.75)[1]
        runs = 500
        x = np.zeros(n, dtype=np.uint8)
        party_noise = np.empty((runs, n))
        for k in range(runs):
            _, e = windowed_min_protocol(x, eps, delta, t, 0.75, derive_rng(52, k))
            party_noise[k] = [tape[0] for tape in e.tapes]
        per_party = 2 * r_base / n
        assert abs(np.var(party_noise) - per_party) / per_party < 0.05
        interval_noise = party_noise.reshape(runs, n // interval, interval).sum(axis=2)
        per_interval = 2 * r_base * interval / n
        assert abs(np.var(interval_noise) - per_interval) / per_interval < 0.05
        total = party_noise.sum(axis=1)
        assert abs(np.var(total) - 2 * r_base) / (2 * r_base) < 0.25

    def test_noisy_error_bound(self):
        n, eps, delta, t = 4096, 1.0, 0.01, 7
        window, interval = windowed_min_sizes(n, 0.75)
        r_base = noise_base_variance(eps, delta)
        bound = interval * (1 + 6 * math.sqrt(2 * r_base) / interval)
        rng = derive_rng(53)
        hits = 0
        runs = 50
        for k in range(runs):
            x = (rng.random(n) < 0.5).astype(np.uint8)
            est, _ = windowed_min_protocol(
                x, eps, delta, t, 0.75, derive_rng(54, k), record=False
            )
            hits += abs(est - min_window_weight(x, window)) <= bound
        assert hits / runs >= 0.9


class TestSharedSumFixture:
    def test_view_distribution_depends_only_on_sum(self):
        # a trusted-aggregation style protocol for a symmetric function:
        # a coalition holding the same inputs sees identical view
        # distributions whenever the input sums agree
        protocol = SharedModularSumProtocol(modulus=3)
        topo = fixture_topology(protocol)
        y = np.array([1, 0, 0], dtype=np.uint8)
        z = np.array([0, 1, 0], dtype=np.uint8)
        va = coalition_view_distribution(protocol, topo, y, [2])
        vb = coalition_view_distribution(protocol, topo, z, [2])
        assert set(va) == set(vb)
        for key in va:
            assert va[key] == pytest.approx(vb[key], abs=1e-12)

    def test_output_is_sum_mod_q(self):
        protocol = SharedModularSumProtocol(modulus=5)
        topo = fixture_topology(protocol)
        e = run_drawn(protocol, topo, [1, 1, 1], derive_rng(55))
        assert e.output == 3


# Symbols json.dumps can write: big ints, floats json writes specially,
# bools, numpy floats, strings with commas and quotes, nested lists/tuples.
_FIELD = st.integers(0, 10**6)
_SCALARS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**63, 2**64 + 1, -0.0, 1e16, 1e-300, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.text(alphabet=',"[]{}\\ a\n\u00e9', max_size=6),
)
_SYMBOLS = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner), max_leaves=6
)


def _execution(transcript):
    if not isinstance(transcript, Transcript):
        transcript = Transcript(*zip(*transcript))
    return Execution(
        n=0,
        rounds=1,
        bits=np.zeros(0, dtype=np.uint8),
        output=None,
        n_messages=len(transcript),
        transcript=transcript,
        tapes=(),
    )


def _same(a, b) -> bool:
    """Equal values of identical types, all the way down; NaN matches NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def _check_against_per_line_json(transcript):
    """Write and read back, against one json.dumps / json.loads per line."""
    expected_text = "".join(f"{r},{s},{v},{json.dumps(y)}\n" for r, s, v, y in transcript)
    expected = []
    for line in expected_text.splitlines():
        r, s, v, y = line.split(",", 3)
        expected.append(Message(int(r), int(s), int(v), json.loads(y)))
    e = _execution(transcript)
    assert execution_records(e) == expected_text.splitlines()
    fd, path = tempfile.mkstemp(suffix=".log")
    os.close(fd)
    try:
        write_execution(e, path)
        with open(path, "rb") as fh:
            assert fh.read() == expected_text.encode("utf-8")
        got = read_execution_records(path)
    finally:
        os.remove(path)
    assert type(got) is Transcript and len(got) == len(expected)
    assert all(map(_same, got, expected))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        e = randomized_response_distributed([1, 0, 1, 1], 1.0, derive_rng(56))
        path = tmp_path / "transcript.log"
        write_execution(e, str(path))
        records = read_execution_records(str(path))
        assert records == list(e.transcript)

    def test_line_format(self):
        e = Execution(
            n=2,
            rounds=1,
            bits=np.array([1, 0], dtype=np.uint8),
            output=None,
            n_messages=1,
            transcript=Transcript([1], [0], [1], [0.5]),
            tapes=(None, None),
        )
        assert execution_records(e) == ["1,0,1,0.5"]

    def test_lean_execution_not_serializable(self):
        e = randomized_response_distributed([1, 0], 1.0, derive_rng(0), record=False)
        with pytest.raises(ValueError):
            execution_records(e)

    def test_failed_write_leaves_existing_file(self, tmp_path):
        path = tmp_path / "transcript.log"
        path.write_text("1,0,1,0.5\n", encoding="utf-8")
        e = randomized_response_distributed([1, 0], 1.0, derive_rng(0), record=False)
        with pytest.raises(ValueError):
            write_execution(e, str(path))
        assert path.read_text(encoding="utf-8") == "1,0,1,0.5\n"

    def test_empty_transcript(self, tmp_path):
        path = tmp_path / "transcript.log"
        write_execution(_execution([]), str(path))
        assert path.read_bytes() == b""
        assert read_execution_records(str(path)) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "transcript.log"
        path.write_text('\n1,0,1,0.5\n  \n\n2,1,0,"a,b"\r\n\n', encoding="utf-8")
        assert read_execution_records(str(path)) == [Message(1, 0, 1, 0.5), Message(2, 1, 0, "a,b")]

    @given(st.lists(st.tuples(_FIELD, _FIELD, _FIELD, _SYMBOLS), max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_line_json(self, rows):
        _check_against_per_line_json([Message(*row) for row in rows])

    def test_matches_per_line_json_across_chunks(self):
        # several chunks of the reader and writer, one of them holding a
        # string and a list symbol, so both parse paths run
        rng = derive_rng(57)
        transcript = [Message(1, i, 0, v) for i, v in enumerate(rng.normal(size=10_000).tolist())]
        transcript[5000] = Message(1, 5000, 0, "x,y")
        transcript[5001] = Message(1, 5001, 0, [1, [2.5, None]])
        transcript[9000] = Message(1, 9000, 0, math.nan)
        _check_against_per_line_json(transcript)

    def test_recorded_runs_match_per_line_json(self):
        # every announcement is one float object, formatted once per chunk;
        # windowed-min's 2,743 records span three chunks, and its last two
        # mix int shares and sums with that float
        x = (derive_rng(61).random(256) < 0.5).astype(np.uint8)
        _, e = windowed_min_protocol(x, 1.0, 0.01, 7, 0.75, derive_rng(62))
        assert len(e.transcript) > 2 * ds._CHUNK_LINES
        _check_against_per_line_json(e.transcript)
        _, e = gaussian_aggregator_sum(x[:64], 1.0, derive_rng(63))
        _check_against_per_line_json(e.transcript)

    @pytest.mark.parametrize(
        "text",
        [
            "1,2,3\n",  # three fields
            "1,2,3,4,5\n",  # five fields
            '1,2,3,"a",5\n',
            "1,2,x,4\n",
            "1.0,2,3,4\n",
            "true,2,3,4\n",
            "1,false,3,4\n",
            '1,2,"3",4\n',
            "1,2,3,{\n",  # invalid JSON symbol
            "1,2,3,nan\n",
            "1,2,3,4],[5,6,7,8\n",  # one line, two rows
            '1,2,3,4],[1,2,3,"\n"\n',  # the quote pairs with the next line's
            "1,2,3,[[0\n0]],[1,2,3,4\n",  # the bracket pairs with the next line's
            "1,2,3,4\n1,2,3\n1,2,3,4,5\n",  # two and four commas average three
        ],
    )
    def test_malformed_lines_rejected(self, tmp_path, text):
        path = tmp_path / "transcript.log"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError):
            read_execution_records(str(path))


_ROWS = st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3), _SYMBOLS), max_size=8)

# sha256 of every input's {tuple(transcript): probability}, recorded before
# transcripts became columnar
_ENUMERATION_DIGESTS = {
    "relay": "9fa797b6c358c1f1806de21b9044b07bce3eb62a703fd5ddd1df09d9ff3705b8",
    "parity": "bd47082ea5bc266ee38743f9d0fd593204640839b7d2596857bb6e9c4b1db3e4",
    "chain": "30f200816ed4d8856a2768c9c9d15b0e6a41bc1ce62192eb99808c8370da7c44",
    "shared-sum": "e25ed9d3b3163e34439867115420c6be6303c5d1f30e2a1bb6bea7c0da9685ec",
    "rr-star": "4005a28d61bf7a2a36f501f898a7874f55e372a8deed4407e2b0042c586ee963",
}


class TestTranscript:
    """``Transcript`` against the tuple of its messages."""

    @given(_ROWS, st.data())
    @settings(max_examples=200, deadline=None)
    def test_behaves_as_its_tuple(self, rows, data):
        t = Transcript(*zip(*rows))
        ref = tuple(Message(*row) for row in rows)
        assert len(t) == len(ref)
        got = list(t)
        assert all(type(m) is Message for m in got) and all(map(_same, got, ref))
        for k in range(-len(ref), len(ref)):
            assert type(t[k]) is Message and _same(t[k], ref[k])
        for k in (len(ref), -len(ref) - 1):
            with pytest.raises(IndexError):
                t[k]
        cut = data.draw(st.slices(len(ref) + 2))
        assert type(t[cut]) is Transcript and len(t[cut]) == len(ref[cut])
        assert all(map(_same, t[cut], ref[cut]))
        # each symbol object is shared with ref, so NaN compares as in ref == ref
        for other in (ref, list(ref), Transcript(*zip(*rows))):
            assert t == other and other == t and not t != other
        longer = ref + (Message(1, 0, 0, 0),)
        for other in (longer, list(longer), Transcript(*zip(*longer))):
            assert t != other and other != t and not t == other
        if ref:
            changed = ref[:-1] + (ref[-1]._replace(receiver=ref[-1].receiver + 1),)
            assert t != changed and t != Transcript(*zip(*changed))
        try:
            expected = hash(ref)
        except TypeError:
            with pytest.raises(TypeError):
                hash(t)
        else:
            assert hash(t) == expected and {ref: 1}[t] == 1 and {t: 1}[ref] == 1

    def test_empty(self):
        t = Transcript()
        assert len(t) == 0 and list(t) == [] and t == () and t == [] and t == Transcript()
        assert hash(t) == hash(()) and type(t[:3]) is Transcript and t[:3] == ()
        with pytest.raises(IndexError):
            t[0]

    def test_list_symbol_unhashable(self):
        t = Transcript([1, 2], [0, 1], [1, 0], [1, [1, 2]])
        with pytest.raises(TypeError):
            hash(t)
        assert t == (Message(1, 0, 1, 1), Message(2, 1, 0, [1, 2]))

    def test_pickled_copy_hashes_as_its_tuple(self):
        t = Transcript([1, 2], [0, 1], [1, 0], [math.nan, "a"])
        hash(t)
        u = pickle.loads(pickle.dumps(t))
        assert type(u) is Transcript and math.isnan(u[0].symbol) and u[1] == Message(2, 1, 0, "a")
        assert hash(u) == hash(tuple(u))

    def test_columns_must_have_equal_lengths(self):
        with pytest.raises(ValueError):
            Transcript([1, 1], [0, 1], [1, 0], [0])

    def test_not_equal_to_other_types(self):
        assert Transcript() != "" and Transcript([1], [0], [1], [0]) != {Message(1, 0, 1, 0)}

    @given(_ROWS, st.sets(st.integers(0, 3)))
    @settings(max_examples=200, deadline=None)
    def test_coalition_view_selects_by_receiver(self, rows, coalition):
        e = replace(
            _execution(rows), n=4, bits=np.array([1, 0, 1, 1], dtype=np.uint8), tapes=("a", "b", "c", "d")
        )
        view = coalition_view(e, coalition)
        expected = [m for m in e.transcript if m.receiver in coalition]
        assert type(view.received) is Transcript and len(view.received) == len(expected)
        assert all(map(_same, view.received, expected))
        assert view.inputs == tuple(e.inputs[i] for i in sorted(coalition))

    @pytest.mark.parametrize(
        "protocol, topology",
        [(p, fixture_topology(p)) for p in _ENUMERATION_FIXTURES] + [(RRStarProtocol(4, 1.0), star_topology(4))],
        ids=_FIXTURE_IDS + ["rr-star"],
    )
    def test_enumeration_unchanged(self, request, protocol, topology):
        h = hashlib.sha256()
        for bits in itertools.product((0, 1), repeat=protocol.n):
            dist = enumerate_executions(protocol, topology, list(bits))
            assert all(type(t) is Transcript for t in dist)
            dist = {tuple(t): p for t, p in dist.items()}
            h.update(repr(sorted((tuple(map(tuple, k)), p) for k, p in dist.items())).encode())
        assert h.hexdigest() == _ENUMERATION_DIGESTS[request.node.callspec.id]

    def test_every_producer_gives_a_transcript(self, tmp_path):
        x = np.array([1, 0, 1, 1, 0, 1, 0, 0], dtype=np.uint8)
        parity = NoisyParityProtocol(flip_bias_for(1.0))
        runs = [
            run_drawn(parity, fixture_topology(parity), x[:3], derive_rng(64)),
            randomized_response_distributed(x, 1.0, derive_rng(65)),
            gaussian_aggregator_sum(x, 1.0, derive_rng(66))[1],
            windowed_min_protocol(np.tile(x, 2), 1.0, 0.01, 1, 0.75, derive_rng(67))[1],
        ]
        path = str(tmp_path / "transcript.log")
        for e in runs:
            assert type(e.transcript) is Transcript and len(e.transcript) == e.n_messages
            assert type(coalition_view(e, [0, 1]).received) is Transcript
            write_execution(e, path)
            back = read_execution_records(path)
            assert type(back) is Transcript and back == e.transcript

    def test_no_message_built_to_record_view_write_or_read(self, tmp_path, monkeypatch):
        def no_message(fields):
            raise AssertionError("a Message was built")

        monkeypatch.setattr(ds, "_as_message", no_message)
        x = (derive_rng(72).random(64) < 0.5).astype(np.uint8)
        runs = [
            randomized_response_distributed(x, 1.0, derive_rng(73)),
            gaussian_aggregator_sum(x, 1.0, derive_rng(74))[1],
            windowed_min_protocol(x[:16], 1.0, 0.01, 3, 0.75, derive_rng(75))[1],
        ]
        path = str(tmp_path / "transcript.log")
        for e in runs:
            view = coalition_view(e, [0, 5])
            write_execution(e, path)
            back = read_execution_records(path)
            assert back == e.transcript and hash(view.received) == hash(tuple(view.received.rows()))
        with pytest.raises(AssertionError):
            list(back)


class TestLazyInputs:
    def test_inputs_built_when_first_read(self):
        x = np.array([1, 0, 1, 1], dtype=np.uint8)
        _, e = gaussian_aggregator_sum(x, 1.0, derive_rng(68), record=False)
        assert "inputs" not in vars(e)
        assert e.bits.dtype == np.uint8 and not e.bits.flags.writeable
        assert np.array_equal(e.bits, x)
        assert e.inputs == (1, 0, 1, 1) and all(type(b) is int for b in e.inputs)
        assert e.inputs is e.inputs

    @pytest.mark.parametrize("record", [False, True])
    def test_every_producer_keeps_the_bits(self, record):
        x = [1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 0]
        runs = [
            randomized_response_distributed(x, 1.0, derive_rng(69), record=record),
            gaussian_aggregator_sum(x, 1.0, derive_rng(70), record=record)[1],
            windowed_min_protocol(x, 1.0, 0.01, 1, 0.75, derive_rng(71), record=record)[1],
        ]
        for e in runs:
            assert e.bits.tolist() == x and e.inputs == tuple(x)
            assert e.n == e.bits.size
            if record:
                assert type(e.tapes) is tuple and len(e.tapes) == e.n
                assert e.n_messages == len(e.transcript)
            else:
                assert e.transcript is None and e.tapes is None


class TestRecordingMatchesPerElementConstruction:
    """Recorded transcripts and tapes against the per-element construction.

    The reference redraws each run's randomness from the same seed and
    builds every record one element at a time from numpy arrays.
    """

    def _assert_same_run(self, e, records, tapes):
        assert type(e.transcript) is Transcript and all(type(m) is Message for m in e.transcript)
        assert all(map(_same, e.transcript, records)) and len(e.transcript) == len(records)
        assert _same(e.tapes, tapes)
        coalition = {0, 2}
        received = coalition_view(e, coalition).received
        assert type(received) is Transcript
        assert received == tuple(m for m in records if m.receiver in coalition)

    def test_gaussian_aggregator(self):
        n, eps = 9, 1.0
        x = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1], dtype=np.uint8)
        _, e = gaussian_aggregator_sum(x, eps, derive_rng(58))
        rng = derive_rng(58)
        sigma = math.sqrt(gaussian_noise_variance(n, eps))
        noise = rng.normal(0.0, sigma, n)
        y = x + noise
        estimate = float(y.sum())
        records = [Message(1, i, 0, float(y[i])) for i in range(1, n)]
        records += [Message(2, 0, i, estimate) for i in range(1, n)]
        self._assert_same_run(e, records, tuple(float(v) for v in noise))

    @pytest.mark.parametrize("t", [0, 1, 3])
    def test_windowed_min(self, t):
        n, eps, delta = 16, 1.0, 0.01
        x = (derive_rng(59).random(n) < 0.5).astype(np.uint8)
        estimate, e = windowed_min_protocol(x, eps, delta, t, 0.75, derive_rng(60, t))
        # the same draws, with the shares and interval sums in Python ints
        q = DEFAULT_MODULUS
        scale = fixed_point_scale(n)
        interval = windowed_min_sizes(n, 0.75)[1]
        rng = derive_rng(60, t)
        noisy = x + rng.normal(0.0, math.sqrt(2.0 * noise_base_variance(eps, delta) / n), n)
        heads = rng.integers(0, q, size=(n, t), dtype=np.uint64).tolist() if t else [[]] * n
        closing = [(int(np.rint(noisy[i] * scale)) - sum(heads[i])) % q for i in range(n)]
        shares = np.array([heads[i] + [closing[i]] for i in range(n)], dtype=np.uint64)
        agg = np.array(
            [[sum(int(shares[i, j]) for i in range(m, m + interval)) % q for j in range(t + 1)]
             for m in range(0, n, interval)],
            dtype=np.uint64,
        )
        records = []
        for i in range(n):
            for j in range(t + 1):
                if j != i:
                    records.append(Message(1, i, j, int(shares[i, j])))
        for j in range(1, t + 1):
            for m in range(n // interval):
                records.append(Message(2, j, 0, int(agg[m, j])))
        for i in range(1, n):
            records.append(Message(3, 0, i, estimate))
        tapes = tuple(
            (float(noisy[i] - x[i]), tuple(int(s) for s in shares[i])) for i in range(n)
        )
        self._assert_same_run(e, records, tapes)
