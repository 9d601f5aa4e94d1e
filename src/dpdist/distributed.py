"""Fixed-communication point-to-point protocol simulator.

Protocols run in synchronous rounds over secure pairwise channels declared up
front; the set of used channels never depends on inputs or randomness
(obliviousness), which the engine enforces.  Executions capture the full
ordered transcript and per-party randomness, so coalition views can be
extracted exactly and small protocols can be audited by exhaustive
enumeration over the parties' finite tapes.

Every transcript, whether the engine or a vectorized protocol recorded it, a
coalition view selected it or ``read_execution_records`` parsed it, is one
``Transcript``: four column tuples (round, sender, receiver, symbol) that
iterate as ``Message``s built on demand, and compare and hash as the tuple
of those messages.

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
import numbers
import operator
from dataclasses import dataclass, replace
from itertools import chain, compress, islice, repeat
from typing import Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import Bits, as_bits
from .local_model import _SINGLE_RUN, Curator, CuratorView, InteractiveParty, enumerate_interactive
from .mechanisms import flip_bias_for
from . import local_model

__all__ = [
    "Message",
    "Transcript",
    "Topology",
    "PartyClassification",
    "classify",
    "random_topology",
    "star_topology",
    "ObliviousnessViolationError",
    "Protocol",
    "FlipTapeProtocol",
    "Execution",
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


class Transcript(Sequence):
    """A run's messages in order, held as four equal-length column tuples.

    ``columns`` is the four of them, in the order of ``Message``'s fields,
    each with one entry per message.  As a read-only sequence it
    yields ``Message``s built on demand, and a slice is a ``Transcript``.  It
    equals any tuple, list or ``Transcript`` of the same messages in the same
    order and hashes as the tuple of its messages, so a list symbol makes
    ``hash`` raise ``TypeError``.
    """

    __slots__ = ("columns",)

    def __init__(self, round: Iterable[int] = (), sender: Iterable[int] = (),
                 receiver: Iterable[int] = (), symbol: Iterable[Any] = ()):
        self.columns = r, s, v, y = tuple(round), tuple(sender), tuple(receiver), tuple(symbol)
        if not len(r) == len(s) == len(v) == len(y):
            raise ValueError("transcript columns must have equal lengths")

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, k):
        if isinstance(k, slice):
            return Transcript(*(c[k] for c in self.columns))
        return _as_message(c[k] for c in self.columns)

    def rows(self) -> Iterator[Tuple[int, int, int, Any]]:
        """The messages as plain (round, sender, receiver, symbol) tuples, which compare and hash as they do."""
        return zip(*self.columns)

    def __iter__(self) -> Iterator[Message]:
        return map(_as_message, zip(*self.columns))

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Transcript):
            return self.columns == other.columns
        if isinstance(other, (tuple, list)):
            # one pair at a time, with no second list
            return len(self) == len(other) and all(map(operator.eq, self.rows(), other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.rows()))

    def __repr__(self) -> str:
        return f"Transcript({tuple(self)!r})"


class ObliviousnessViolationError(RuntimeError):
    """A run used an undeclared channel, or skipped a declared one."""


def _norm_pair(a: int, b: int) -> Tuple[int, int]:
    if a == b:
        raise ValueError("channels must connect distinct parties")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Topology:
    """Party count, a non-negative integer, and the fixed set of usable pairwise channels."""

    n: int
    channels: FrozenSet[Tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "n", operator.index(self.n))
        if self.n < 0:
            raise ValueError(f"party count {self.n} is negative")
        norm = frozenset(_norm_pair(operator.index(a), operator.index(b)) for a, b in self.channels)
        object.__setattr__(self, "channels", norm)
        for a, b in norm:
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"channel ({a},{b}) out of range for n={self.n}")


def star_topology(n: int) -> Topology:
    return Topology(n, frozenset((0, i) for i in range(1, n)))


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
    """Split parties into popular (degree >= t+1) and lonely (degree <= t); ``t`` must be an integer."""
    t = operator.index(t)
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
    per-party behaviour through ``send``.  A run may send on declared
    channels only, and must use each of them in some round and direction.
    A party's behaviour must be a deterministic function of (party, input
    bit, tape, round, messages received in earlier rounds); all randomness
    lives in the tape, drawn once before round one.  ``received`` is a tuple
    with one entry per completed round, each a tuple of (sender, symbol)
    pairs sorted by sender.

    The protocol output must be computable from the output party's own
    view, so the curator compiler can have that party announce it.

    Exact enumeration memoizes on (party, tape, ``received``), whose length
    gives the round: it calls ``send`` once per distinct triple, and
    ``output`` once per (tape, ``received``) after the last round, and
    reuses the results; whether a run used every declared channel is
    checked on that run's own sends.  Tapes and histories compare by value,
    so ones that compare equal (1, 1.0 and True; 0.0 and -0.0) must get the
    same sends and output, as equal symbols already merge into one
    transcript; the party receives the first-seen of equal histories.  Tapes
    and symbols, the last round's included, must hash: a list, say, raises
    ``TypeError`` from every exact enumeration, while a single run keeps no
    memo and accepts it.
    """

    n: int = 0
    rounds: int = 0
    output_party: int = 0

    def channels(self) -> FrozenSet[Tuple[int, int]]:
        raise NotImplementedError

    def draw_tape(self, i: int, rng: np.random.Generator) -> Any:
        return None

    def tape_space(self, i: int) -> Optional[List[Tuple[Any, float]]]:
        """Finite (tape, probability) list for party ``i``, if enumerable; every tape must hash."""
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


@dataclass(frozen=True, eq=False)
class Execution:
    """Complete record of one protocol run.

    ``bits`` is the validated read-only uint8 input, and ``inputs`` the same
    bits as a tuple of Python ints, built when first read.  ``transcript`` is
    ordered by (round, sender, receiver); ``tapes`` holds each party's random
    tape, so the run can be replayed deterministically.  Lean runs
    (``record=False``) drop both but keep exact message counts.
    """

    n: int
    rounds: int
    bits: np.ndarray
    output: Any
    n_messages: int
    transcript: Optional[Transcript] = None
    tapes: Optional[Tuple[Any, ...]] = None

    @functools.cached_property
    def inputs(self) -> Tuple[int, ...]:
        return tuple(self.bits.tolist())


def _check_run(
    protocol: Protocol, topology: Topology, x: Bits
) -> Tuple[np.ndarray, Tuple[Tuple[int, ...], FrozenSet[Tuple[int, int]]]]:
    """Checks that depend on (protocol, topology, input) only, made once per call.

    Returns the validated input bits, and what every replay on these three
    reads: the bits as Python ints and the declared channels.
    """
    bits = as_bits(x)
    if bits.size != protocol.n:
        raise ValueError("protocol, topology, and input sizes must agree")
    return bits, (tuple(bits.tolist()), _declared(protocol, topology))


def _declared(protocol: Protocol, topology: Topology) -> FrozenSet[Tuple[int, int]]:
    """The protocol's declared channels, which must lie in the topology."""
    if topology.n != protocol.n:
        raise ValueError("protocol, topology, and input sizes must agree")
    declared = protocol.channels()
    if not declared <= topology.channels:
        raise ValueError("protocol uses channels missing from the topology")
    return declared


def _checked_sends(
    protocol: Protocol, i: int, x_i: int, tape: Any, rnd: int, received: Tuple[Tuple, ...],
    declared: FrozenSet[Tuple[int, int]],
) -> Tuple[Tuple[int, Any], ...]:
    """Party ``i``'s round-``rnd`` sends as sorted (receiver, symbol) pairs; raises on the first undeclared receiver."""
    sent = tuple(sorted(protocol.send(i, x_i, tape, rnd, received).items()))
    for receiver, _ in sent:
        if _norm_pair(i, receiver) not in declared:
            raise ObliviousnessViolationError(f"round {rnd}: undeclared channel {i}->{receiver}")
    return sent


def _check_all_used(rounds: Sequence[Sequence[Tuple]], declared: FrozenSet[Tuple[int, int]]) -> None:
    """Raise unless a run uses every declared channel; each of its ``rounds`` is one ``_checked_sends`` tuple per party."""
    # a round of 2|declared| checked sends goes both ways on every channel
    if 2 * len(declared) in [sum(map(len, sends)) for sends in rounds]:
        return
    used = {(i, r) if i < r else (r, i) for sends in rounds for i, sent in enumerate(sends) for r, _ in sent}
    if used != declared:
        raise ObliviousnessViolationError(f"declared channels never used: {sorted(declared - used)}")


def _deliver(n: int, sends: Iterable[Iterable[Tuple[int, Any]]]) -> Tuple[Tuple[Tuple[int, Any], ...], ...]:
    """Every party's inbox of (sender, symbol) pairs, in sender order, from each sender's (receiver, symbol) pairs."""
    inboxes: List[List[Tuple[int, Any]]] = [[] for _ in range(n)]
    for sender, pairs in enumerate(sends):
        for receiver, symbol in pairs:
            inboxes[receiver].append((sender, symbol))
    return tuple(map(tuple, inboxes))


def _replay(
    protocol: Protocol,
    xs: Tuple[int, ...],
    declared: FrozenSet[Tuple[int, int]],
    record: bool,
    tapes: Sequence[Any],
    memo: Any = _SINGLE_RUN,
) -> Tuple[Any, List[List[Tuple[Tuple[int, Any], ...]]], Optional[Transcript]]:
    """One run on fixed tapes after ``_check_run``: (output, each round's sends, transcript).

    A round's sends are one ``_checked_sends`` tuple per party.  The per-run
    channel checks are made here; the transcript is None unless ``record``.

    With an enumeration's ``memo``, laid out as ``local_model`` describes
    above ``_NoMemo``, each party's sends are looked up and stored under its
    key, once per (party, tape, history), as ``Protocol`` describes, and the
    output under the output party's key after the last round, which keys no
    send.  A stored send has passed the receiver checks, which depend on it
    alone; whether the run used every channel is checked on every run.
    """
    n = len(xs)
    prev: List[Any] = [(None, ())] * n  # each party's previous entry; before round one, an empty one
    history = []
    inboxes = None
    for rnd in range(1, protocol.rounds + 1):
        sends = []
        for i in range(n):
            key = (i, tapes[i], ()) if inboxes is None else (prev[i][0], inboxes[i])
            entry = memo.get(key)
            if entry is None:
                received = prev[i][1] if inboxes is None else prev[i][1] + (inboxes[i],)
                sent = _checked_sends(protocol, i, xs[i], tapes[i], rnd, received, declared)
                entry = memo[key] = (len(memo), received, sent)
            prev[i] = entry
            sends.append(entry[2])
        history.append(sends)
        # round-rnd sends reach a party's history only after every party has sent
        inboxes = _deliver(n, sends)
    _check_all_used(history, declared)
    p = protocol.output_party
    if inboxes is None:
        key = (p, tapes[p], ())
    else:
        if memo is not _SINGLE_RUN:
            hash(inboxes)  # every last-round symbol must hash, as in the compiled protocol's last queries
        key = (prev[p][0], inboxes[p])
    entry = memo.get(key)
    if entry is None:
        received = prev[p][1] if inboxes is None else prev[p][1] + (inboxes[p],)
        entry = memo[key] = (len(memo), received, protocol.output(xs[p], tapes[p], received))
    transcript = None
    if record:
        rows = [(rnd, i, r, y) for rnd, sends in enumerate(history, 1) for i, sent in enumerate(sends) for r, y in sent]
        transcript = Transcript(*zip(*rows))
    return entry[2], history, transcript


def _execution(
    rounds: int, bits: np.ndarray, tapes: Optional[Iterable[Any]], record: bool,
    run: Tuple[Any, int, Optional[Transcript]],
) -> Execution:
    """The ``Execution`` of a run's (output, message count, transcript), the one place one is built.

    ``n`` is ``bits.size``; the tapes, which may be any iterable, become a
    tuple only with ``record``, and are not read otherwise.
    """
    output, n_messages, transcript = run
    return Execution(
        n=bits.size,
        rounds=rounds,
        bits=bits,
        output=output,
        n_messages=n_messages,
        transcript=transcript,
        tapes=tuple(tapes) if record else None,
    )


def run_protocol_with_tapes(
    protocol: Protocol,
    topology: Topology,
    x: Bits,
    tapes: Sequence[Any],
    record: bool = True,
) -> Execution:
    """Deterministic synchronous execution with all tapes fixed, one per party."""
    bits, checked = _check_run(protocol, topology, x)
    local_model._check_tape_count(tapes, protocol.n)
    output, history, transcript = _replay(protocol, *checked, record, tapes)
    n_messages = sum(map(len, chain.from_iterable(history)))
    return _execution(protocol.rounds, bits, tapes, record, (output, n_messages, transcript))


def _tape_distribution(
    protocol: Protocol,
    topology: Topology,
    x: Bits,
    key: Optional[Callable[[Tuple[int, ...], Tuple[Any, ...], Transcript], Any]],
) -> Dict[Any, float]:
    """Exact distribution of ``key(inputs, tapes, transcript)`` over all joint tape assignments.

    The input and channel declarations are checked once; every joint tape is
    then replayed, with its own channel checks, each party once per (tape,
    history) through one memo for the call, and each run's probability is
    added to its key's with one hash of the key, in ``joint_tapes`` order.
    ``inputs`` are the bits as Python ints.  With ``key`` None the runs are
    keyed by their output and unrecorded.
    """
    _, (xs, declared) = _check_run(protocol, topology, x)
    spaces = [protocol.tape_space(i) for i in range(protocol.n)]
    record = key is not None
    memo: Dict[Tuple[Any, ...], Tuple[Any, ...]] = {}
    out: Dict[Any, List[float]] = {}  # each key's probability, in a cell
    for tapes, prob in local_model.joint_tapes(spaces):
        output, _, transcript = _replay(protocol, xs, declared, record, tapes, memo)
        out.setdefault(key(xs, tapes, transcript) if record else output, [0.0])[0] += prob
    return {k: cell[0] for k, cell in out.items()}


def enumerate_executions(protocol: Protocol, topology: Topology, x: Bits) -> Dict[Transcript, float]:
    """Exact transcript distribution: ``{transcript: probability}``.

    Requires finite tape spaces for every party.  Tapes that influence
    only the output, not the messages, collapse into the same transcript,
    so outputs are enumerated separately by ``output_distribution``.
    """
    return _tape_distribution(protocol, topology, x, lambda xs, tapes, transcript: transcript)


def output_distribution(protocol: Protocol, topology: Topology, x: Bits) -> Dict[Any, float]:
    """Exact distribution of the protocol output, by tape enumeration."""
    return _tape_distribution(protocol, topology, x, None)


def consistent_probability(
    protocol: Protocol, i: int, x_i: int, transcript: Sequence[Message]
) -> float:
    """Probability that party ``i`` sends exactly as in a fixed transcript.

    The party is replayed against the messages the transcript delivers to
    it; tape probabilities are summed over tapes whose sends match the
    transcript in every round.  A party outside ``0..n-1``, an input bit
    other than 0 or 1, a message round outside ``1..rounds`` or a message
    sender or receiver outside ``0..n-1`` raises ``ValueError``; a party
    index that is not an integer raises ``TypeError``.
    """
    i = operator.index(i)
    if not 0 <= i < protocol.n:
        raise ValueError(f"party {i} out of range for n={protocol.n}")
    if x_i not in (0, 1):
        raise ValueError(f"input bit {x_i!r} of party {i} is not 0 or 1")
    space = protocol.tape_space(i)
    if space is None:
        raise ValueError(f"party {i} has no finite tape space")
    recv_by_round: List[List[Tuple[int, Any]]] = [[] for _ in range(protocol.rounds)]
    sent_by_round: List[Dict[int, Any]] = [dict() for _ in range(protocol.rounds)]
    rows = transcript.rows() if isinstance(transcript, Transcript) else transcript
    for rnd, sender, receiver, symbol in rows:
        if not 1 <= rnd <= protocol.rounds:
            raise ValueError(f"message round {rnd} outside 1..{protocol.rounds}")
        if not (0 <= sender < protocol.n and 0 <= receiver < protocol.n):
            raise ValueError(f"message {sender}->{receiver} names a party outside 0..{protocol.n - 1}")
        if receiver == i:
            recv_by_round[rnd - 1].append((sender, symbol))
        if sender == i:
            sent_by_round[rnd - 1][receiver] = symbol
    recv = tuple(tuple(sorted(r)) for r in recv_by_round)

    def reproduces(tape: Any) -> bool:
        return all(
            protocol.send(i, x_i, tape, rnd, recv[: rnd - 1]) == sent_by_round[rnd - 1]
            for rnd in range(1, protocol.rounds + 1)
        )

    # zero-probability tapes are skipped without being replayed
    return sum((prob for tape, prob in space if prob != 0.0 and reproduces(tape)), 0.0)


# ---------------------------------------------------------------------------
# Coalition views
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoalitionView:
    """What a party subset jointly sees: inputs, tapes, received messages."""

    coalition: Tuple[int, ...]
    inputs: Tuple[int, ...]
    tapes: Tuple[Any, ...]
    received: Transcript


def _members(coalition: Iterable[int], n: int) -> Tuple[int, ...]:
    """Sorted distinct members; a non-integer raises ``TypeError``, one outside 0..n-1 ``ValueError``."""
    members = tuple(sorted(set(map(operator.index, coalition))))
    for i in members:
        if not 0 <= i < n:
            raise ValueError(f"party {i} out of range")
    return members


def _view(
    members: Tuple[int, ...], inputs: Sequence[int], tapes: Sequence[Any], transcript: Transcript
) -> CoalitionView:
    """The ``CoalitionView`` of checked ``members`` in one recorded run, with the bits as Python ints."""
    selected = list(map(set(members).__contains__, transcript.columns[2]))  # by receiver
    return CoalitionView(
        coalition=members,
        inputs=tuple(inputs[i] for i in members),
        tapes=tuple(tapes[i] for i in members),
        received=Transcript(*(compress(c, selected) for c in transcript.columns)),
    )


def coalition_view(e: Execution, coalition: Iterable[int]) -> CoalitionView:
    """Extract the view of a coalition from a recorded execution; a non-integer member raises ``TypeError``."""
    members = _members(coalition, e.n)
    if e.transcript is None or e.tapes is None:
        raise ValueError("coalition views require a recorded execution")
    return _view(members, e.inputs, e.tapes, e.transcript)


def coalition_view_distribution(
    protocol: Protocol, topology: Topology, x: Bits, coalition: Iterable[int]
) -> Dict[CoalitionView, float]:
    """Exact distribution over coalition views, by tape enumeration; the coalition is checked before any party runs."""
    members = _members(coalition, protocol.n)
    return _tape_distribution(protocol, topology, x, functools.partial(_view, members))


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

    def output_distribution(self, x: Bits) -> Dict[Any, float]:
        return enumerate_interactive(self.parties, self.curator, x, self.rounds, by_output=True)


def compile_to_local(protocol: Protocol, topology: Topology) -> CompiledLocalProtocol:
    """Compile an oblivious protocol into a curator-mediated local protocol.

    The result runs in ``protocol.rounds + 1`` rounds.  Party answers in
    round j are their original round-j sends as a ((receiver, symbol), ...)
    tuple; curator queries in round j deliver the round-(j-1) messages as a
    ((sender, symbol), ...) tuple.  In the last round only the output party
    answers, with ("output", value).

    The compiled run makes the engine's per-run channel checks with the
    engine's own helpers, and raises the same errors.  Each party checks its
    sends with ``_checked_sends``, so a send to oneself or on an undeclared
    channel raises before the next party answers.  The curator delivers with
    ``_deliver`` and, when it delivers the last round, raises through
    ``_check_all_used`` on a declared channel left unused, before the output
    party answers.  A party's own error propagates as raised, and a topology
    of another size raises ``ValueError`` here.
    """
    declared = _declared(protocol, topology)
    n = protocol.n
    ell = protocol.rounds
    out_party = protocol.output_party
    nothing = ((),) * n

    def make_party(i: int) -> InteractiveParty:
        def answer(x_i: int, queries: Tuple[Any, ...], tape: Any) -> Any:
            j = len(queries)
            # queries[r] holds the original round-r deliveries (queries[0]
            # is the empty kick-off), so earlier-round receipts are
            # queries[1:j].
            received = queries[1:j]
            if j <= ell:
                return _checked_sends(protocol, i, x_i, tape, j, received, declared)
            if i == out_party:
                return ("output", protocol.output(x_i, tape, received))
            return ()

        return InteractiveParty(
            answer=answer,
            draw_tape=lambda rng, i=i: protocol.draw_tape(i, rng),
            tape_space=lambda space=protocol.tape_space(i): space,
        )

    def query(j: int, answer_hist: Tuple[Any, ...]) -> Sequence[Any]:
        if j == ell + 1:
            _check_all_used(answer_hist, declared)
        # round j delivers the round-(j-1) sends, none in round 1
        return _deliver(n, answer_hist[j - 2]) if j > 1 else nothing

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
    sends the estimate to everyone, for 2(n-1) messages in total.  A
    non-integer ``n`` raises ``TypeError``.
    """

    def __init__(self, n: int, eps: float):
        self.n = operator.index(n)
        if self.n < 1:
            raise ValueError("need at least one party")
        self.rounds = 2
        self.params = flip_bias_for(eps)
        self.keep_prob = self.params.keep_prob

    def channels(self) -> FrozenSet[Tuple[int, int]]:
        return star_topology(self.n).channels

    def send(
        self, i: int, x_i: int, tape: bool, rnd: int, received: Tuple[Tuple, ...]
    ) -> Dict[int, Any]:
        if rnd == 1:
            return {} if i == 0 else {0: self._report(x_i, tape)}
        if i == 0:
            estimate = self.output(x_i, tape, received)
            return {j: estimate for j in range(1, self.n)}
        return {}

    def output(self, x_i: int, tape: bool, received: Tuple[Tuple, ...]) -> float:
        """Party 0's debiased count of its own report and the round-1 reports it received."""
        count = self._report(x_i, tape) + sum(sym for _, sym in received[0])
        return local_model.rr_debias(float(count), self.n, self.params)


def randomized_response_distributed(
    x: Bits, eps: float, rng: np.random.Generator, record: bool = True
) -> Execution:
    """Run the star-topology randomized-response protocol, vectorized.

    It draws n uniforms, in party order, one per party's keep/swap tape, after
    ``RRStarProtocol(n, eps)``, its engine reference on ``star_topology(n)``,
    has checked the parameters.  Its ``Execution`` and ``rng``'s final state
    equal that engine run's on tapes drawn one party at a time.
    """
    bits = as_bits(x)
    n = bits.size
    protocol = RRStarProtocol(n, eps)
    keep = rng.random(n) < protocol.keep_prob
    reports = bits ^ ~keep
    estimate = local_model.rr_debias(float(np.count_nonzero(reports)), n, protocol.params)
    transcript = _star_transcript(reports[1:].tolist(), estimate) if record else None
    return _execution(2, bits, keep.tolist() if record else None, record, (estimate, 2 * (n - 1), transcript))


def _star_transcript(reports: Sequence[Any], announced: Any) -> Transcript:
    """Round 1: party i sends ``reports[i - 1]`` to party 0.  Round 2: party 0 sends ``announced`` to each."""
    m = len(reports)
    parties = tuple(range(1, m + 1))
    return Transcript(
        (1,) * m + (2,) * m,
        parties + (0,) * m,
        (0,) * m + parties,
        tuple(reports) + (announced,) * m,  # one announced object, whose text the writer makes once
    )


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
    noise = rng.normal(0.0, math.sqrt(gaussian_noise_variance(n, eps)), n)
    y = bits + noise
    estimate = float(y.sum())
    transcript = tapes = None
    if record:
        transcript = _star_transcript(y[1:].tolist(), estimate)
        tapes = noise.tolist()
    return estimate, _execution(2, bits, tapes, record, (estimate, 2 * (n - 1), transcript))


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
    """``r`` as a uint64 array; a value that is not an integer in [0, q) raises ``ValueError``.

    A uint64 array costs one ``max``.  Other input is checked as exact Python
    numbers, since numpy would truncate a float, wrap a negative int, or make
    floats of Python ints on both sides of 2^63.
    """
    a = np.asarray(r)
    if a.dtype == np.uint64:
        ok = not a.size or a.max() < _Q64
    else:
        a = np.array(r, dtype=object)
        ok = all(isinstance(v, numbers.Integral) and 0 <= v < DEFAULT_MODULUS for v in a.flat)
    if not ok:
        raise ValueError(f"residues must lie in [0, {DEFAULT_MODULUS})")
    return a.astype(np.uint64, copy=False)


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
    if n < 1:
        raise ValueError(f"n must be positive; got {n!r}")
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

    The estimate comes, in both modes, from the per-interval sums of the
    encoded values: the shares of a value sum to its encoding mod q, so
    these are bit for bit the totals party 0 reconstructs.  The shares and
    the aggregators' sums exist only with ``record``.  A lean run draws
    only the noise and leaves ``rng`` where ``rng.normal(0, sqrt(2R/n), n)``
    alone would (untouched with zero_noise); a recorded run then draws the
    shares.  A non-integer ``t`` raises ``TypeError``.

    With zero_noise the estimate equals the gridded window minimum exactly.
    """
    t = operator.index(t)
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
    encoded = _encode_mod_q(np.rint(noisy * scale))
    # bit for bit the totals party 0 reconstructs from the shares
    totals = sum_mod_q(encoded.reshape(n_intervals, interval), 1)
    interval_sums = _decode_mod_q(totals).astype(float) / scale

    window_sums = np.convolve(interval_sums, np.ones(per_window), mode="valid")
    estimate = float(window_sums.min())

    n_messages = (t + 1) * (n - 1) + t * n_intervals + (n - 1)
    transcript = tapes = None
    if record:
        # shares[i, j] = share of party i's value held by aggregator j
        shares = share_mod_q(encoded, t + 1, rng)
        # agg[k, j] = aggregator j's share sum over interval k
        agg = sum_mod_q(shares.reshape(n_intervals, interval, t + 1), 1)
        flat = shares.ravel().tolist()  # Python ints, shared by the records and the tapes
        sent = (~np.eye(n, t + 1, dtype=bool)).ravel().tolist()  # no share to oneself
        n_shares, n_sums = (t + 1) * (n - 1), t * n_intervals
        transcript = Transcript(
            (1,) * n_shares + (2,) * n_sums + (3,) * (n - 1),
            chain(compress(chain.from_iterable(map(repeat, range(n), repeat(t + 1))), sent),
                  np.repeat(np.arange(1, t + 1), n_intervals).tolist(), repeat(0, n - 1)),
            chain(compress(chain.from_iterable(repeat(range(t + 1), n)), sent),
                  repeat(0, n_sums), range(1, n)),
            chain(compress(flat, sent),
                  chain.from_iterable(agg[:, 1:].T.tolist()), repeat(estimate, n - 1)),
        )
        tapes = zip((noisy - bits).tolist(), zip(*[iter(flat)] * (t + 1)))  # party i's row of shares
        assert len(transcript) == n_messages
    return estimate, _execution(3, bits, tapes, record, (estimate, n_messages, transcript))


# ---------------------------------------------------------------------------
# Execution serialization
# ---------------------------------------------------------------------------


_CHUNK_LINES = 1024  # transcript files are read and written this many lines at a time


def _symbol_texts(symbols: Tuple[Any, ...]) -> Sequence[Any]:
    """The symbols, each of which ``%s`` formats as ``json.dumps`` writes it.

    A column of ints is returned as it is, since ``json.dumps`` writes an
    int as its ``repr``, which is also its ``str``.  Otherwise each distinct
    symbol object is made into its text once, as the n-1 announcements of
    one value are one object; an int or a finite float skips ``json.dumps``
    for its ``repr``.
    """
    if set(map(type, symbols)) <= {int}:
        return symbols
    ids = list(map(id, symbols))
    text = {
        k: repr(y) if type(y) is int or (type(y) is float and math.isfinite(y)) else json.dumps(y)
        for k, y in dict(zip(ids, symbols)).items()
    }
    return list(map(text.__getitem__, ids))


def execution_records(e: Execution) -> List[str]:
    """Line-delimited transcript: ``round,sender,receiver,symbol`` per line.

    The symbol is as ``json.dumps`` writes it; field order is as written.
    The lines are formatted by one ``%`` over the transcript's columns.
    """
    if e.transcript is None:
        raise ValueError("execution was run without transcript recording")
    k = len(e.transcript)
    if not k:
        return []
    fields: List[Any] = [None] * (4 * k)
    fields[0::4], fields[1::4], fields[2::4], symbols = e.transcript.columns
    fields[3::4] = _symbol_texts(symbols)
    return (("%s,%s,%s,%s\n" * k)[:-1] % tuple(fields)).split("\n")


def write_execution(e: Execution, path: str) -> None:
    """Write ``execution_records(e)`` in chunks; a lean ``e`` raises before ``path`` opens."""
    if e.transcript is None:
        raise ValueError("execution was run without transcript recording")
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(e.transcript), _CHUNK_LINES):
            chunk = replace(e, transcript=e.transcript[start : start + _CHUNK_LINES])
            fh.write("\n".join(execution_records(chunk)) + "\n")


def read_execution_records(path: str) -> Transcript:
    """Parse ``write_execution`` output in chunks of lines; blank lines are skipped.

    A line that is not three ints and a JSON symbol raises ``ValueError``.  A
    chunk of scalar symbols (no quote, bracket or brace) is one ``json.loads``
    of its lines joined by commas once each line is seen to hold three; other
    chunks go line by line, as one line's bracket could pair with the next's.
    Each chunk's fields are appended to the columns of the ``Transcript``
    returned.
    """
    columns: Tuple[List[Any], ...] = ([], [], [], [])
    with open(path, encoding="utf-8") as fh:
        while True:
            raw = list(islice(fh, _CHUNK_LINES))
            if not raw:
                return Transcript(*columns)
            lines = list(filter(None, map(str.strip, raw)))
            text = ",".join(lines)
            if '"' in text or "[" in text or "{" in text:
                rows = [json.loads(f"[{line}]") for line in lines]
                commas = {len(row) - 1 for row in rows}
                fields = list(chain.from_iterable(rows))
            else:
                commas = set(map(str.count, lines, repeat(",")))
                fields = json.loads(f"[{text}]")
            parts = [fields[j::4] for j in range(4)]
            if commas - {3} or set(map(type, chain(*parts[:3]))) - {int}:
                raise ValueError(f"{path}: each line must be round,sender,receiver,symbol")
            for column, part in zip(columns, parts):
                column += part
