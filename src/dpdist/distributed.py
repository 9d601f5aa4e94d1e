"""Fixed-communication point-to-point protocol simulator.

Protocols run in synchronous rounds over secure pairwise channels declared up
front; the set of used channels never depends on inputs or randomness
(obliviousness), which the engine enforces.  Executions capture the full
ordered transcript and per-party randomness, so coalition views can be
extracted exactly and small protocols can be audited by exhaustive
enumeration over the parties' finite tapes.

Also provides the compiler that reroutes any such protocol through an
untrusted curator (one extra round), additive secret sharing over a prime
field, and three concrete protocols: star-topology randomized response,
Gaussian-noise submission to an ideal aggregator, and the 3-round secret
shared windowed-minimum protocol.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from itertools import chain, compress, islice, repeat
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import Bits, as_bits
from .local_model import Curator, CuratorView, InteractiveParty, enumerate_interactive
from .mechanisms import flip_bias_for
from . import local_model

__all__ = [
    "Message",
    "Topology",
    "PartyClassification",
    "classify",
    "random_topology",
    "star_topology",
    "complete_topology",
    "ObliviousnessViolationError",
    "Protocol",
    "FlipTapeProtocol",
    "Execution",
    "run_protocol",
    "run_protocol_with_tapes",
    "enumerate_executions",
    "output_distribution",
    "consistent_probability",
    "CoalitionView",
    "coalition_view",
    "coalition_view_distribution",
    "CompiledLocalProtocol",
    "compile_to_local",
    "RRStarProtocol",
    "randomized_response_distributed",
    "gaussian_aggregator_sum",
    "gaussian_noise_variance",
    "DEFAULT_MODULUS",
    "fixed_point_scale",
    "share_mod_q",
    "sum_mod_q",
    "windowed_min_protocol",
    "windowed_min_sizes",
    "noise_base_variance",
    "execution_records",
    "write_execution",
    "read_execution_records",
]


class Message(NamedTuple):
    """One transcript record: who sent what to whom, and when."""

    round: int
    sender: int
    receiver: int
    symbol: Any


_as_message = functools.partial(tuple.__new__, Message)  # from a 4-item iterable, at C speed


class ObliviousnessViolationError(RuntimeError):
    """A run used an undeclared channel, or skipped a declared one."""


def _norm_pair(a: int, b: int) -> Tuple[int, int]:
    if a == b:
        raise ValueError("channels must connect distinct parties")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Topology:
    """Party count and the fixed set of usable pairwise channels."""

    n: int
    channels: FrozenSet[Tuple[int, int]]

    def __post_init__(self):
        norm = frozenset(_norm_pair(a, b) for a, b in self.channels)
        object.__setattr__(self, "channels", norm)
        for a, b in norm:
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"channel ({a},{b}) out of range for n={self.n}")


def star_topology(n: int) -> Topology:
    return Topology(n, frozenset((0, i) for i in range(1, n)))


def complete_topology(n: int) -> Topology:
    return Topology(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))


def random_topology(n: int, n_channels: int, rng: np.random.Generator) -> Topology:
    """Uniformly random topology with exactly ``n_channels`` distinct channels."""
    max_channels = n * (n - 1) // 2
    if not 0 <= n_channels <= max_channels:
        raise ValueError("channel count out of range")
    idx = rng.choice(max_channels, size=n_channels, replace=False)
    pairs = []
    for k in np.sort(idx):
        # unrank k into the (i, j) pair, i < j, listed row by row
        i = int((2 * n - 1 - math.sqrt((2 * n - 1) ** 2 - 8 * k)) // 2)
        j = int(k - i * (2 * n - i - 1) // 2 + i + 1)
        pairs.append((i, j))
    return Topology(n, frozenset(pairs))


@dataclass(frozen=True)
class PartyClassification:
    """Partition of parties by degree: popular (>= t+1 channels) vs lonely."""

    popular: FrozenSet[int]
    lonely: FrozenSet[int]


def classify(topology: Topology, t: int) -> PartyClassification:
    """Split parties into popular (degree >= t+1) and lonely (degree <= t)."""
    if not 0 <= t <= topology.n - 1:
        raise ValueError("t must lie in [0, n-1]")
    degrees = [0] * topology.n
    for a, b in topology.channels:
        degrees[a] += 1
        degrees[b] += 1
    popular = frozenset(i for i, d in enumerate(degrees) if d >= t + 1)
    lonely = frozenset(range(topology.n)) - popular
    return PartyClassification(popular=popular, lonely=lonely)


# ---------------------------------------------------------------------------
# Generic synchronous engine
# ---------------------------------------------------------------------------


class Protocol:
    """Base class for fixed-communication synchronous protocols.

    Subclasses fix ``n`` and ``rounds``, declare their channels, and define
    per-party behaviour through ``send``.  A party's behaviour must be a
    deterministic function of (party, input bit, tape, round, messages
    received in earlier rounds); all randomness lives in the tape, drawn
    once before round one.  ``received`` is a tuple with one entry per
    completed round, each a tuple of (sender, symbol) pairs sorted by
    sender.

    The protocol output must be computable from the output party's own
    view, so the curator compiler can have that party announce it.
    """

    n: int = 0
    rounds: int = 0
    output_party: int = 0

    def channels(self) -> FrozenSet[Tuple[int, int]]:
        raise NotImplementedError

    def draw_tape(self, i: int, rng: np.random.Generator) -> Any:
        return None

    def tape_space(self, i: int) -> Optional[List[Tuple[Any, float]]]:
        """Finite (tape, probability) list for party ``i``, if enumerable."""
        return None

    def send(
        self, i: int, x_i: int, tape: Any, rnd: int, received: Tuple[Tuple, ...]
    ) -> Dict[int, Any]:
        raise NotImplementedError

    def output(self, x_i: int, tape: Any, received: Tuple[Tuple, ...]) -> Any:
        raise NotImplementedError


class FlipTapeProtocol(Protocol):
    """Protocol whose every tape is one keep/swap decision on the party's bit.

    The tape is True (keep) with probability ``keep_prob``; ``_report``
    applies it, giving the randomized-response report of the bit.
    """

    keep_prob: float = 1.0

    def draw_tape(self, i: int, rng: np.random.Generator) -> bool:
        return bool(rng.random() < self.keep_prob)

    def tape_space(self, i: int) -> List[Tuple[bool, float]]:
        return [(True, self.keep_prob), (False, 1.0 - self.keep_prob)]

    def _report(self, x_i: int, keep: bool) -> int:
        return int(x_i) if keep else 1 - int(x_i)


@dataclass(frozen=True)
class Execution:
    """Complete record of one protocol run.

    ``transcript`` is ordered by (round, sender, receiver); ``tapes`` holds
    each party's random tape, so the run can be replayed deterministically.
    Lean runs (``record=False``) drop both but keep exact message counts.
    """

    n: int
    rounds: int
    inputs: Tuple[int, ...]
    output: Any
    n_messages: int
    transcript: Optional[Tuple[Message, ...]] = None
    tapes: Optional[Tuple[Any, ...]] = None


def _check_run(
    protocol: Protocol, topology: Topology, x: Bits
) -> Tuple[Tuple[int, ...], FrozenSet[Tuple[int, int]], List[set]]:
    """Checks that depend on (protocol, topology, input) only, made once per call.

    Returns the input bits, the declared channels and each party's declared
    neighbours, which every replay on these three reads.
    """
    xs = tuple(as_bits(x).tolist())
    n = protocol.n
    if len(xs) != n or topology.n != n:
        raise ValueError("protocol, topology, and input sizes must agree")
    declared = protocol.channels()
    if not declared <= topology.channels:
        raise ValueError("protocol uses channels missing from the topology")
    # declared pairs are normalized and in range, as the topology's are
    neighbours: List[set] = [set() for _ in range(n)]
    for a, b in declared:
        neighbours[a].add(b)
        neighbours[b].add(a)
    return xs, declared, neighbours


def _replay(
    protocol: Protocol,
    xs: Tuple[int, ...],
    declared: FrozenSet[Tuple[int, int]],
    neighbours: List[set],
    tapes: Sequence[Any],
    record: bool,
) -> Execution:
    """One run on fixed tapes after ``_check_run``; the per-run channel checks are made here."""
    n = len(xs)
    received: List[Tuple[Tuple[Tuple[int, Any], ...], ...]] = [()] * n
    transcript: List[Message] = []
    used: List[set] = [set() for _ in range(n)]  # receivers each party sent to
    n_messages = 0
    send = protocol.send
    for rnd in range(1, protocol.rounds + 1):
        # round-rnd sends go to inboxes that ``received`` takes in only after every party has sent
        inboxes: List[List[Tuple[int, Any]]] = [[] for _ in range(n)]
        for i in range(n):
            sends = send(i, xs[i], tapes[i], rnd, received[i])
            if not sends:
                continue
            if not sends.keys() <= neighbours[i]:  # name the first bad receiver in sorted order
                for receiver in sorted(sends):
                    if _norm_pair(i, receiver) not in declared:
                        raise ObliviousnessViolationError(
                            f"round {rnd}: undeclared channel {i}->{receiver}"
                        )
            used[i].update(sends)
            for receiver, symbol in sends.items():
                inboxes[receiver].append((i, symbol))
            if record:
                transcript += [_as_message((rnd, i, r, sends[r])) for r in sorted(sends)]
            n_messages += len(sends)
        received = [r + (tuple(box),) for r, box in zip(received, inboxes)]
    # each party sending to all its neighbours uses every channel; otherwise collect the used pairs
    if sum(map(len, used)) != 2 * len(declared):
        used_pairs = {(i, j) if i < j else (j, i) for i, to in enumerate(used) for j in to}
        if used_pairs != declared:
            missing = sorted(declared - used_pairs)
            raise ObliviousnessViolationError(f"declared channels never used: {missing}")
    p = protocol.output_party
    output = protocol.output(xs[p], tapes[p], received[p])
    return Execution(
        n=n,
        rounds=protocol.rounds,
        inputs=xs,
        output=output,
        n_messages=n_messages,
        transcript=tuple(transcript) if record else None,
        tapes=tuple(tapes) if record else None,
    )


def run_protocol_with_tapes(
    protocol: Protocol,
    topology: Topology,
    x: Bits,
    tapes: Sequence[Any],
    record: bool = True,
) -> Execution:
    """Deterministic synchronous execution with all tapes fixed."""
    return _replay(protocol, *_check_run(protocol, topology, x), tapes, record)


def run_protocol(
    protocol: Protocol,
    topology: Topology,
    x: Bits,
    rng: np.random.Generator,
    record: bool = True,
) -> Execution:
    """Run a protocol with fresh tapes drawn from ``rng``."""
    tapes = [protocol.draw_tape(i, rng) for i in range(protocol.n)]
    return run_protocol_with_tapes(protocol, topology, x, tapes, record=record)


def _tape_distribution(
    protocol: Protocol,
    topology: Topology,
    x: Bits,
    key: Callable[[Execution], Any],
    record: bool = True,
) -> Dict[Any, float]:
    """Exact distribution of ``key(execution)`` over all joint tape assignments.

    The input and channel declarations are checked once; every joint tape is
    then replayed, with its own channel checks.
    """
    checked = _check_run(protocol, topology, x)
    spaces = []
    for i in range(protocol.n):
        space = protocol.tape_space(i)
        if space is None:
            raise ValueError(f"party {i} has no finite tape space")
        spaces.append(space)
    out: Dict[Any, float] = {}
    for tapes, prob in local_model.joint_tapes(spaces):
        k = key(_replay(protocol, *checked, tapes, record))
        out[k] = out.get(k, 0.0) + prob
    return out


def enumerate_executions(protocol: Protocol, topology: Topology, x: Bits) -> Dict[Tuple, float]:
    """Exact transcript distribution: ``{transcript: probability}``.

    Requires finite tape spaces for every party.  Tapes that influence
    only the output, not the messages, collapse into the same transcript,
    so outputs are enumerated separately by ``output_distribution``.
    """
    return _tape_distribution(protocol, topology, x, lambda e: e.transcript)


def output_distribution(protocol: Protocol, topology: Topology, x: Bits) -> Dict[Any, float]:
    """Exact distribution of the protocol output, by tape enumeration."""
    return _tape_distribution(protocol, topology, x, lambda e: e.output, record=False)


def consistent_probability(
    protocol: Protocol, i: int, x_i: int, transcript: Sequence[Message]
) -> float:
    """Probability that party ``i`` sends exactly as in a fixed transcript.

    The party is replayed against the messages the transcript delivers to
    it; tape probabilities are summed over tapes whose sends match the
    transcript in every round.  A party outside ``0..n-1`` or a message
    round outside ``1..rounds`` raises ``ValueError``.
    """
    if not 0 <= i < protocol.n:
        raise ValueError(f"party {i} out of range for n={protocol.n}")
    space = protocol.tape_space(i)
    if space is None:
        raise ValueError(f"party {i} has no finite tape space")
    recv_by_round: List[List[Tuple[int, Any]]] = [[] for _ in range(protocol.rounds)]
    sent_by_round: List[Dict[int, Any]] = [dict() for _ in range(protocol.rounds)]
    for m in transcript:
        if not 1 <= m.round <= protocol.rounds:
            raise ValueError(f"message round {m.round} outside 1..{protocol.rounds}")
        if m.receiver == i:
            recv_by_round[m.round - 1].append((m.sender, m.symbol))
        if m.sender == i:
            sent_by_round[m.round - 1][m.receiver] = m.symbol
    recv = tuple(tuple(sorted(r)) for r in recv_by_round)

    def reproduces(tape: Any) -> bool:
        return all(
            protocol.send(i, x_i, tape, rnd, recv[: rnd - 1]) == sent_by_round[rnd - 1]
            for rnd in range(1, protocol.rounds + 1)
        )

    return local_model.tape_mass(space, reproduces)


# ---------------------------------------------------------------------------
# Coalition views
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoalitionView:
    """What a party subset jointly sees: inputs, tapes, received messages."""

    coalition: Tuple[int, ...]
    inputs: Tuple[int, ...]
    tapes: Tuple[Any, ...]
    received: Tuple[Message, ...]

    def key(self) -> Tuple:
        return (self.coalition, self.inputs, self.tapes, self.received)


def coalition_view(e: Execution, coalition: Iterable[int]) -> CoalitionView:
    """Extract the view of a coalition from a recorded execution."""
    members = tuple(sorted(set(int(i) for i in coalition)))
    for i in members:
        if not 0 <= i < e.n:
            raise ValueError(f"party {i} out of range")
    if e.transcript is None or e.tapes is None:
        raise ValueError("coalition views require a recorded execution")
    member_set = set(members)
    received = tuple(m for m in e.transcript if m.receiver in member_set)
    return CoalitionView(
        coalition=members,
        inputs=tuple(e.inputs[i] for i in members),
        tapes=tuple(e.tapes[i] for i in members),
        received=received,
    )


def coalition_view_distribution(
    protocol: Protocol, topology: Topology, x: Bits, coalition: Iterable[int]
) -> Dict[Tuple, float]:
    """Exact distribution over coalition views, by tape enumeration."""
    members = tuple(sorted(set(int(i) for i in coalition)))
    return _tape_distribution(protocol, topology, x, lambda e: coalition_view(e, members).key())


# ---------------------------------------------------------------------------
# Compiler: distributed -> local interactive
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompiledLocalProtocol:
    """A point-to-point protocol rerouted through the curator.

    Every message from p_j to p_k in round i travels p_j -> curator in
    round i and curator -> p_k in the first phase of round i+1; in the
    extra final round the output party reports the protocol output to the
    curator.  The curator's view therefore contains every message, and the
    output distribution is unchanged for every input.
    """

    parties: Tuple[InteractiveParty, ...]
    curator: Curator
    rounds: int

    def enumerate(self, x: Bits):
        return enumerate_interactive(self.parties, self.curator, x, self.rounds)

    def output_distribution(self, x: Bits) -> Dict[Any, float]:
        dist: Dict[Any, float] = {}
        for _, (prob, output) in self.enumerate(x).items():
            dist[output] = dist.get(output, 0.0) + prob
        return dist


def compile_to_local(protocol: Protocol, topology: Topology) -> CompiledLocalProtocol:
    """Compile an oblivious protocol into a curator-mediated local protocol.

    The result runs in ``protocol.rounds + 1`` rounds.  Party answers in
    round j are their original round-j sends as a ((receiver, symbol), ...)
    tuple; curator queries in round j deliver the round-(j-1) messages as a
    ((sender, symbol), ...) tuple.  In the last round only the output party
    answers, with ("output", value).
    """
    declared = protocol.channels()
    if not declared <= topology.channels:
        raise ValueError("protocol uses channels missing from the topology")
    n = protocol.n
    ell = protocol.rounds
    out_party = protocol.output_party

    def make_party(i: int) -> InteractiveParty:
        def answer(x_i: int, queries: Tuple[Any, ...], tape: Any) -> Any:
            j = len(queries)
            # queries[r] holds the original round-r deliveries (queries[0]
            # is the empty kick-off), so earlier-round receipts are
            # queries[1:j].
            received = tuple(queries[1:j])
            if j <= ell:
                sends = protocol.send(i, x_i, tape, j, received)
                return tuple(sorted(sends.items()))
            if i == out_party:
                return ("output", protocol.output(x_i, tape, received))
            return ()

        return InteractiveParty(
            answer=answer,
            draw_tape=lambda rng, i=i: protocol.draw_tape(i, rng),
            tape_space=(
                (lambda i=i: protocol.tape_space(i))
                if protocol.tape_space(i) is not None
                else None
            ),
        )

    def query(j: int, answer_hist: Tuple[Any, ...]) -> Sequence[Any]:
        if j == 1:
            return ((),) * n
        # senders are taken in order and each names a receiver at most once, so inboxes come sorted
        inboxes: List[List[Tuple[int, Any]]] = [[] for _ in range(n)]
        for sender, sent in enumerate(answer_hist[j - 2]):
            for receiver, symbol in sent:
                inboxes[receiver].append((sender, symbol))
        return tuple(map(tuple, inboxes))

    def output(view: CuratorView) -> Any:
        tag, value = view.answers[-1][out_party]
        assert tag == "output"
        return value

    parties = tuple(make_party(i) for i in range(n))
    return CompiledLocalProtocol(
        parties=parties, curator=Curator(query=query, output=output), rounds=ell + 1
    )


# ---------------------------------------------------------------------------
# Randomized response on a star topology
# ---------------------------------------------------------------------------


class RRStarProtocol(FlipTapeProtocol):
    """Randomized response with party 0 playing the curator's role.

    Round 1: every other party sends its flipped bit to party 0 (party 0
    flips its own bit locally).  Round 2: party 0 debiases the count and
    sends the estimate to everyone, for 2(n-1) messages in total.
    """

    def __init__(self, n: int, eps: float):
        if n < 1:
            raise ValueError("need at least one party")
        self.n = n
        self.rounds = 2
        self.eps = eps
        self.params = flip_bias_for(eps)
        self.keep_prob = self.params.keep_prob

    def channels(self) -> FrozenSet[Tuple[int, int]]:
        return frozenset((0, i) for i in range(1, self.n))

    def _estimate(self, x_0: int, tape_0: bool, received: Tuple[Tuple, ...]) -> float:
        count = self._report(x_0, tape_0) + sum(sym for _, sym in received[0])
        return local_model.rr_debias(float(count), self.n, self.params)

    def send(
        self, i: int, x_i: int, tape: bool, rnd: int, received: Tuple[Tuple, ...]
    ) -> Dict[int, Any]:
        if rnd == 1:
            return {} if i == 0 else {0: self._report(x_i, tape)}
        if i == 0:
            estimate = self._estimate(x_i, tape, received)
            return {j: estimate for j in range(1, self.n)}
        return {}

    def output(self, x_i: int, tape: bool, received: Tuple[Tuple, ...]) -> float:
        return self._estimate(x_i, tape, received)


def randomized_response_distributed(
    x: Bits, eps: float, rng: np.random.Generator, record: bool = True
) -> Execution:
    """Run the star-topology randomized-response protocol."""
    bits = as_bits(x)
    protocol = RRStarProtocol(bits.size, eps)
    return run_protocol(protocol, star_topology(bits.size), bits, rng, record=record)


# ---------------------------------------------------------------------------
# Gaussian submissions to an ideal aggregator
# ---------------------------------------------------------------------------


def _over_eps_squared(numerator: float, n: int, eps: float) -> float:
    """numerator / (n eps^2), evaluated as ``numerator / (n * eps * eps)``.

    Raises ``ValueError`` naming eps unless eps is finite and positive, its
    square does not underflow to 0 and the quotient does not overflow.
    """
    if math.isfinite(eps) and eps > 0 and eps * eps > 0:
        v = numerator / (n * eps * eps)
        if math.isfinite(v):
            return v
    raise ValueError(f"eps must be finite and positive, with a finite noise variance; got {eps!r}")


def gaussian_noise_variance(n: int, eps: float) -> float:
    """Per-party noise variance 6 ln^2(n) / (n eps^2)."""
    return _over_eps_squared(6.0 * math.log(n) ** 2, n, eps)


def gaussian_aggregator_sum(
    x: Bits,
    eps: float,
    rng: np.random.Generator,
    zero_noise: bool = False,
    record: bool = True,
) -> Tuple[float, Execution]:
    """Sum protocol where each party submits a Gaussian-noised bit.

    Party 0 acts as an ideal aggregator standing in for the
    threshold-decryption machinery: coalition views expose only each
    party's submitted noisy value, never the raw bit.  Per-party noise is
    N(0, 6 ln^2(n)/(n eps^2)), so the total noise on the estimate has
    variance 6 ln^2(n)/eps^2, and removing any n/2 parties' own noise
    still leaves half that.
    """
    bits = as_bits(x)
    n = bits.size
    if n < 2:
        raise ValueError("need at least two parties")
    sd = math.sqrt(gaussian_noise_variance(n, eps))  # checks eps even with zero_noise
    noise = np.zeros(n) if zero_noise else rng.normal(0.0, sd, n)
    y = bits + noise
    estimate = float(y.sum())
    transcript = tapes = None
    if record:
        reports = zip(repeat(1), range(1, n), repeat(0), y[1:].tolist())
        announce = zip(repeat(2), repeat(0), range(1, n), repeat(estimate))
        transcript = tuple(map(_as_message, chain(reports, announce)))
        tapes = tuple(noise.tolist())
    e = Execution(
        n=n,
        rounds=2,
        inputs=tuple(bits.tolist()),
        output=estimate,
        n_messages=2 * (n - 1),
        transcript=transcript,
        tapes=tapes,
    )
    return estimate, e


# ---------------------------------------------------------------------------
# Additive secret sharing over a prime field
# ---------------------------------------------------------------------------

# Smallest prime above 2^63; fits in uint64 with wrap-aware addition.
DEFAULT_MODULUS = 9223372036854775837


def fixed_point_scale(n: int) -> int:
    """Decimal fixed-point scale, one digit per decimal digit of n."""
    if n < 1:
        raise ValueError("n must be positive")
    return 10 ** math.ceil(math.log10(n)) if n > 1 else 10


# uint64 helpers: q slightly exceeds 2^63, so a+b of two residues can wrap
# past 2^64.  A wrapped sum (s < a) is a+b-2^64, and subtracting q from it
# mod 2^64 gives a+b-q, exactly as for an unwrapped s >= q.
_Q64 = np.uint64(DEFAULT_MODULUS)


def _add_mod_q(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # ufuncs, not operators: on numpy scalars the operators warn when they wrap
    s = np.add(a, b)
    return np.where((s < a) | (s >= _Q64), np.subtract(s, _Q64), s)


def _as_residues(r: Any) -> np.ndarray:
    r = np.asarray(r, dtype=np.uint64)
    if r.size and r.max() >= _Q64:
        raise ValueError(f"residues must lie in [0, {DEFAULT_MODULUS})")
    return r


def sum_mod_q(residues: Any, axis: int) -> np.ndarray:
    """Sum field residues along ``axis`` mod q, in index order; the empty sum is 0."""
    terms = np.moveaxis(_as_residues(residues), axis, 0)
    if not len(terms):
        return np.zeros(terms.shape[1:], dtype=np.uint64)
    # a copy, so that a one-term sum does not alias the input
    return functools.reduce(_add_mod_q, terms[1:], terms[0].copy())


def share_mod_q(residues: Any, parts: int, rng: np.random.Generator) -> np.ndarray:
    """Split each field residue into ``parts`` additive shares mod q.

    Returns a ``(..., parts)`` uint64 array whose last axis sums to the
    residue mod q.  The first ``parts - 1`` shares are uniform draws and the
    last closes the sum, so any ``parts - 1`` shares are uniform whatever the
    residue; only all of them reconstruct it.
    """
    if parts < 1:
        raise ValueError("parts must be at least 1")
    r = _as_residues(residues)
    heads = rng.integers(0, DEFAULT_MODULUS, size=r.shape + (parts - 1,), dtype=np.uint64)
    acc = sum_mod_q(heads, -1)
    closing = _add_mod_q(r, np.where(acc == 0, acc, _Q64 - acc))  # r - acc mod q
    return np.concatenate((heads, closing[..., None]), axis=-1)


def _encode_mod_q(k: Any) -> np.ndarray:
    """Integer-valued numbers to field residues; NaN, +-inf or |k| > (q-1)/2 raise."""
    k = np.asarray(k)
    half = (DEFAULT_MODULUS - 1) // 2
    if not np.all((k >= -half) & (k <= half)):  # checked before the int64 cast, which wraps
        raise ValueError("value is not finite or overflows the modulus range")
    k = k.astype(np.int64)
    return np.where(k < 0, _Q64 - (-k).astype(np.uint64), k.astype(np.uint64))


def _decode_mod_q(r: np.ndarray) -> np.ndarray:
    """Field residues to signed int64 (centered representative)."""
    r = np.asarray(r, dtype=np.uint64)
    high = r > np.uint64(DEFAULT_MODULUS // 2)
    return np.where(high, -((_Q64 - r).astype(np.int64)), r.astype(np.int64))


# ---------------------------------------------------------------------------
# Secret-shared windowed minimum (3 rounds)
# ---------------------------------------------------------------------------


def noise_base_variance(eps: float, delta: float) -> float:
    """The quantity R = 2 ln(2/delta) / eps^2 calibrating the Gaussian noise."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    return _over_eps_squared(2.0 * math.log(2.0 / delta), 1, eps)


def windowed_min_sizes(n: int, alpha_exp: float) -> Tuple[int, int]:
    """Window length n^alpha_exp and interval length n^(alpha_exp/3).

    Both must be integers, the interval must divide both n and the window;
    otherwise the instance is rejected.
    """
    if not 0.0 < alpha_exp < 1.0:
        raise ValueError("alpha_exp must lie in (0, 1)")
    window_f = n**alpha_exp
    interval_f = n ** (alpha_exp / 3.0)
    window, interval = round(window_f), round(interval_f)
    if abs(window_f - window) > 1e-9 * window or abs(interval_f - interval) > 1e-9 * interval:
        raise ValueError(
            f"n={n}, alpha_exp={alpha_exp} gives non-integral window/interval sizes"
        )
    if n % interval != 0 or window % interval != 0:
        raise ValueError("interval must divide both n and the window")
    return window, interval


def windowed_min_protocol(
    x: Bits,
    eps: float,
    delta: float,
    t: int,
    alpha_exp: float,
    rng: np.random.Generator,
    zero_noise: bool = False,
    record: bool = True,
) -> Tuple[float, Execution]:
    """3-round secret-shared protocol for the minimum window weight.

    Round 1: party i draws Gaussian noise Y_i ~ N(0, 2R/n) with
    R = 2 ln(2/delta)/eps^2, and additively shares the fixed-point rounding
    of x_i + Y_i among the t+1 aggregator parties 0..t (no self-message for
    its own share).  Round 2: every aggregator sums its shares within each
    interval and sends the per-interval sums to party 0.  Round 3: party 0
    reconstructs each interval total, takes the minimum window sum over
    interval-aligned window starts, and announces it.

    With zero_noise the estimate equals the gridded window minimum exactly.
    """
    bits = as_bits(x)
    n = bits.size
    if t < 0 or 2 * t >= n:
        raise ValueError("need 0 <= t and 2t < n")
    window, interval = windowed_min_sizes(n, alpha_exp)
    n_intervals = n // interval
    per_window = window // interval
    r_base = noise_base_variance(eps, delta)
    scale = fixed_point_scale(n)

    if zero_noise:
        noisy = bits.astype(float)
    else:
        noisy = bits + rng.normal(0.0, math.sqrt(2.0 * r_base / n), n)
    # shares[i, j] = share of party i's value held by aggregator j
    shares = share_mod_q(_encode_mod_q(np.rint(noisy * scale)), t + 1, rng)
    # per-aggregator, per-interval share sums, then each interval's total
    agg = sum_mod_q(shares.reshape(n_intervals, interval, t + 1), 1)
    interval_sums = _decode_mod_q(sum_mod_q(agg, 1)).astype(float) / scale

    window_sums = np.convolve(interval_sums, np.ones(per_window), mode="valid")
    estimate = float(window_sums.min())
    if zero_noise:
        estimate = float(int(round(estimate)))

    n_messages = (t + 1) * (n - 1) + t * n_intervals + (n - 1)
    transcript = tapes = None
    if record:
        rows = shares.tolist()  # Python ints, shared by the records and the tapes
        senders = chain.from_iterable(map(repeat, range(n), repeat(t + 1)))
        receivers = chain.from_iterable(repeat(range(t + 1), n))
        sent = (~np.eye(n, t + 1, dtype=bool)).ravel().tolist()  # no share to oneself
        sharing = compress(zip(repeat(1), senders, receivers, chain.from_iterable(rows)), sent)
        sums = zip(repeat(2), np.repeat(np.arange(1, t + 1), n_intervals).tolist(), repeat(0),
                   chain.from_iterable(agg[:, 1:].T.tolist()))
        announce = zip(repeat(3), repeat(0), range(1, n), repeat(estimate))
        transcript = tuple(map(_as_message, chain(sharing, sums, announce)))
        tapes = tuple(zip((noisy - bits).tolist(), map(tuple, rows)))
        assert len(transcript) == n_messages
    e = Execution(
        n=n,
        rounds=3,
        inputs=tuple(bits.tolist()),
        output=estimate,
        n_messages=n_messages,
        transcript=transcript,
        tapes=tapes,
    )
    return estimate, e


# ---------------------------------------------------------------------------
# Execution serialization
# ---------------------------------------------------------------------------


_CHUNK_LINES = 1024  # transcript files are read and written this many lines at a time


def execution_records(e: Execution) -> List[str]:
    """Line-delimited transcript: ``round,sender,receiver,symbol`` per line.

    The symbol is as ``json.dumps`` writes it, which for an int or a finite
    float is its ``repr``, so those skip the call; field order is as written.
    """
    if e.transcript is None:
        raise ValueError("execution was run without transcript recording")
    return [
        f"{r},{s},{v},{y!r}" if type(y) is int or (type(y) is float and math.isfinite(y))
        else f"{r},{s},{v},{json.dumps(y)}"
        for r, s, v, y in e.transcript
    ]


def write_execution(e: Execution, path: str) -> None:
    """Write ``execution_records(e)`` in chunks; a lean ``e`` raises before ``path`` opens."""
    if e.transcript is None:
        raise ValueError("execution was run without transcript recording")
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(e.transcript), _CHUNK_LINES):
            chunk = replace(e, transcript=e.transcript[start : start + _CHUNK_LINES])
            fh.write("\n".join(execution_records(chunk)) + "\n")


def read_execution_records(path: str) -> List[Message]:
    """Parse ``write_execution`` output in chunks of lines; blank lines are skipped.

    A line that is not three ints and a JSON symbol raises ``ValueError``.  A
    chunk of scalar symbols (no quote, bracket or brace) is one ``json.loads``
    of its lines joined by commas once each line is seen to hold three; other
    chunks go line by line, as one line's bracket could pair with the next's.
    """
    out: List[Message] = []
    with open(path, encoding="utf-8") as fh:
        while True:
            raw = list(islice(fh, _CHUNK_LINES))
            if not raw:
                return out
            lines = list(filter(None, map(str.strip, raw)))
            text = ",".join(lines)
            if '"' in text or "[" in text or "{" in text:
                rows = [json.loads(f"[{line}]") for line in lines]
                commas = {len(row) - 1 for row in rows}
                fields = list(chain.from_iterable(rows))
            else:
                commas = {line.count(",") for line in lines}
                fields = json.loads(f"[{text}]")
            if commas - {3} or set(map(type, fields[0::4] + fields[1::4] + fields[2::4])) - {int}:
                raise ValueError(f"{path}: each line must be round,sender,receiver,symbol")
            it = iter(fields)
            out.extend(map(_as_message, zip(it, it, it, it)))
