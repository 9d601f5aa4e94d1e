"""The local communication model: parties talk only to an untrusted curator.

Non-interactive protocols have each party apply a sanitizing map to its own
bit and send one message; interactive protocols proceed in rounds of
deterministic curator queries followed by party answers.  The curator is a
deterministic function of what it has received, so its view is exactly the
ordered message log.

Includes the classic sum protocol: randomized response with debiasing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import Bits, GapParams, as_bits
from .mechanisms import FlipParams, flip, flip_bias_for, flip_output_prob

__all__ = [
    "SanitizerSpec",
    "flip_sanitizer",
    "constant_sanitizer",
    "CuratorView",
    "enumerate_noninteractive",
    "joint_tapes",
    "InteractiveParty",
    "Curator",
    "flip_party",
    "run_interactive",
    "run_interactive_with_tapes",
    "enumerate_interactive",
    "randomized_response_sum",
    "rr_debias",
    "rr_count_distribution",
    "rr_report_counts",
    "rr_report_count_chunks",
    "rr_estimate_batch",
    "sum_to_gap",
]


class _NoMemo:
    """A single run's memo: it keeps nothing, so no key is hashed."""

    def get(self, key: Any) -> None:
        return None

    def __setitem__(self, key: Any, value: Any) -> None:
        pass


class _Histories:
    """A single run's party histories, each its own id, and a memo that keeps nothing.

    A key names a party's history: (party, tape, history) spells it out,
    and (id, item) is id ``id``'s history followed by ``item``.
    ``add(key)`` returns (id, history) for the history a key names.
    """

    memo: Any = _NoMemo()

    def add(self, key: Tuple[Any, ...]) -> Tuple[Any, Tuple[Any, ...]]:
        h = key[2] if len(key) == 3 else key[0] + (key[1],)
        return h, h

    def hash(self, items: Tuple[Any, ...]) -> None:
        """Raise ``TypeError`` if an item does not hash, as one in a key would; a single run checks nothing."""


class _InternedHistories(_Histories):
    """One exact enumeration's histories as small int ids, in order of first sight, and its memo.

    ``memo`` maps a key to (id, what the party returned there), so a lookup
    hashes a tape only in round one and then an id and one round's item,
    never a whole history.  A history is kept as the first-seen of equal
    ones.
    """

    def __init__(self) -> None:
        self.memo: Dict[Tuple[Any, ...], Tuple[Any, ...]] = {}
        self.histories: List[Tuple[Any, ...]] = []

    def add(self, key: Tuple[Any, ...]) -> Tuple[int, Tuple[Any, ...]]:
        histories = self.histories
        h = key[2] if len(key) == 3 else histories[key[0]] + (key[1],)
        histories.append(h)
        return len(histories) - 1, h

    def hash(self, items: Tuple[Any, ...]) -> None:
        hash(items)


_SINGLE_RUN = _Histories()


# ---------------------------------------------------------------------------
# Sanitizers (non-interactive party programs)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SanitizerSpec:
    """A single party's randomized map from its input bit to one message.

    ``alphabet`` lists every message the map can send, and
    ``output_prob(x, symbol)`` is its exact probability oracle, which drives
    all exact audits.
    """

    alphabet: Tuple[Any, ...]
    output_prob: Callable[[int, Any], float]

    def distribution(self, x: int) -> Dict[Any, float]:
        """Exact output distribution on input ``x``."""
        return {c: self.output_prob(x, c) for c in self.alphabet}


def flip_sanitizer(p: FlipParams) -> SanitizerSpec:
    """Randomized-response sanitizer: keep the bit w.p. 0.5 + flip_bias."""
    return SanitizerSpec(
        alphabet=(0, 1),
        output_prob=lambda x, c: flip_output_prob(x, c, p),
    )


def constant_sanitizer(symbol: Any = 0) -> SanitizerSpec:
    """Ignores the input and always sends ``symbol`` (zero privacy loss)."""
    return SanitizerSpec(
        alphabet=(symbol,),
        output_prob=lambda x, c: 1.0 if c == symbol else 0.0,
    )


# ---------------------------------------------------------------------------
# Curator view
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CuratorView:
    """Ordered log of what the curator received (and asked).

    ``answers[r][i]`` is the message party ``i`` sent in round ``r+1``; a
    round's messages may be stored as a numpy array indexed by party.
    ``queries[r][i]`` is the query the curator sent party ``i`` in round
    ``r+1`` (empty for non-interactive protocols).
    """

    answers: Tuple[Any, ...]
    queries: Tuple[Any, ...] = ()

    @property
    def rounds(self) -> int:
        return len(self.answers)

    @property
    def n(self) -> int:
        return len(self.answers[0]) if self.answers else 0


# ---------------------------------------------------------------------------
# Non-interactive enumeration
# ---------------------------------------------------------------------------


def enumerate_noninteractive(
    sanitizers: Sequence[SanitizerSpec], x: Bits
) -> Dict[Tuple[Any, ...], float]:
    """Exact distribution over curator views (finite alphabets only).

    Maps each possible message vector c to its probability, the product of
    the per-party output probabilities.
    """
    bits = as_bits(x)
    if len(sanitizers) != bits.size:
        raise ValueError("need exactly one sanitizer per party")
    spaces = [s.distribution(b).items() for s, b in zip(sanitizers, bits.tolist())]
    out: Dict[Tuple[Any, ...], float] = {}
    for c, prob in joint_tapes(spaces):
        out[c] = out.get(c, 0.0) + prob
    return out


# ---------------------------------------------------------------------------
# Finite tapes: joint enumeration
# ---------------------------------------------------------------------------


def joint_tapes(
    spaces: Sequence[Optional[Iterable[Tuple[Any, float]]]],
) -> Iterator[Tuple[Tuple[Any, ...], float]]:
    """Every joint assignment of independent finite tapes, with its probability.

    ``spaces[i]`` lists the (tape, probability) pairs of the i-th tape (a
    party's, or one round's of a party); None raises ``ValueError`` before
    any assignment.  Assignments come in ``itertools.product`` order as
    (tapes, probability); the probability is the product of the parties'
    probabilities taken left to right from 1.0, and assignments of
    probability zero are skipped.  Every exact enumeration replays these.
    """
    for i, space in enumerate(spaces):
        if space is None:
            raise ValueError(f"party {i} has no finite tape space")
    spaces = [list(space) for space in spaces]  # a space may be a one-pass iterator
    tapes = itertools.product(*[[tape for tape, _ in space] for space in spaces])
    probs = itertools.product(*[[p for _, p in space] for space in spaces])
    for combo, ps in zip(tapes, probs):
        prob = math.prod(ps, start=1.0)
        if prob > 0.0:
            yield combo, prob


# ---------------------------------------------------------------------------
# Interactive runner
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InteractiveParty:
    """A party in the interactive local model.

    ``answer(x_i, queries, tape)`` produces the answer for round
    ``len(queries)``; it may depend only on the input bit, the queries
    received so far, and the random tape drawn once before round one.
    ``tape_space`` enumerates (tape, probability) pairs when the tape is
    finite, enabling exact audits.

    Exact enumeration memoizes on (party, tape, queries so far): it calls
    ``answer`` once per distinct triple and reuses the answer.  Tapes and
    queries compare by value, so ones that compare equal (1, 1.0 and True;
    0.0 and -0.0) must get the same answer, as equal queries already give
    the same view key; the party receives the first-seen of equal query
    histories.  Tapes, queries and answers must hash: a list, say, raises
    ``TypeError`` from ``enumerate_interactive``, while a single run keeps
    no memo and accepts it.
    """

    answer: Callable[[int, Tuple[Any, ...], Any], Any]
    draw_tape: Callable[[np.random.Generator], Any] = lambda rng: None
    tape_space: Optional[Callable[[], Iterable[Tuple[Any, float]]]] = None


@dataclass(frozen=True)
class Curator:
    """Deterministic curator: a query policy plus a final output map.

    ``query(j, answer_history)`` returns the per-party queries for round
    ``j`` (1-based); it sees only answers from rounds strictly before
    ``j``, so all round-``j`` queries are independent of round-``j``
    answers.
    """

    query: Callable[[int, Tuple[Any, ...]], Sequence[Any]]
    output: Callable[[CuratorView], Any]


def flip_party(round_params: Sequence[FlipParams]) -> InteractiveParty:
    """Party that answers every round with a fresh randomized-response bit.

    Queries are ignored; the tape holds one keep/swap decision per round.
    """
    params = tuple(round_params)

    def answer(x_i: int, queries: Tuple[Any, ...], tape: Tuple[bool, ...]) -> int:
        j = len(queries) - 1
        return int(x_i) if tape[j] else 1 - int(x_i)

    def draw_tape(rng: np.random.Generator) -> Tuple[bool, ...]:
        return tuple(bool(rng.random() < p.keep_prob) for p in params)

    def tape_space() -> Iterable[Tuple[Tuple[bool, ...], float]]:
        return joint_tapes([((True, p.keep_prob), (False, 1.0 - p.keep_prob)) for p in params])

    return InteractiveParty(answer=answer, draw_tape=draw_tape, tape_space=tape_space)


def _check_interactive(parties: Sequence[InteractiveParty], x: Bits, rounds: int) -> List[int]:
    """Checks that depend on (parties, input, rounds) only; returns the input bits."""
    xs = as_bits(x).tolist()
    if len(parties) != len(xs):
        raise ValueError("need exactly one party program per input bit")
    if rounds < 1:
        raise ValueError("rounds must be at least 1")
    return xs


def _check_tape_count(tapes: Sequence[Any], n: int) -> None:
    """Raise ``ValueError`` unless ``tapes`` holds one tape for each of the ``n`` parties."""
    if len(tapes) != n:
        raise ValueError(f"need exactly one tape per party; got {len(tapes)} for {n} parties")


def _replay_interactive(
    parties: Sequence[InteractiveParty],
    curator: Curator,
    xs: List[int],
    rounds: int,
    tapes: Sequence[Any],
    table: _Histories = _SINGLE_RUN,
) -> Tuple[Any, CuratorView]:
    """One run on fixed tapes, with ``_check_interactive``'s bits.

    With an enumeration's ``table``, each answer is looked up and stored
    under its party's key, once per (party, tape, queries so far), as
    ``InteractiveParty`` describes.
    """
    n = len(xs)
    memo = table.memo
    answer_hist: Tuple[Tuple[Any, ...], ...] = ()
    query_hist: Tuple[Tuple[Any, ...], ...] = ()
    h: List[Any] = [None] * n  # each party's id
    for j in range(1, rounds + 1):
        qs = tuple(curator.query(j, answer_hist))
        if len(qs) != n:
            raise ValueError("curator must issue one query per party")
        query_hist += (qs,)
        answers = []
        for i in range(n):
            key = (i, tapes[i], (qs[i],)) if j == 1 else (h[i], qs[i])
            entry = memo.get(key)
            if entry is None:
                k, queries = table.add(key)
                entry = memo[key] = (k, parties[i].answer(xs[i], queries, tapes[i]))
            h[i], a = entry
            answers.append(a)
        answer_hist += (tuple(answers),)
    view = CuratorView(answers=answer_hist, queries=query_hist)
    return curator.output(view), view


def run_interactive_with_tapes(
    parties: Sequence[InteractiveParty],
    curator: Curator,
    x: Bits,
    rounds: int,
    tapes: Sequence[Any],
) -> Tuple[Any, CuratorView]:
    """Deterministic execution with the parties' tapes fixed, one per party."""
    xs = _check_interactive(parties, x, rounds)
    _check_tape_count(tapes, len(xs))
    return _replay_interactive(parties, curator, xs, rounds, tapes)


def run_interactive(
    parties: Sequence[InteractiveParty],
    curator: Curator,
    x: Bits,
    rounds: int,
    rng: np.random.Generator,
) -> Tuple[Any, CuratorView]:
    """Run an interactive local protocol for the given number of rounds.

    Each round has two phases: the curator queries every party, then every
    party answers.  Tapes are drawn once, before the first round.
    """
    tapes = [p.draw_tape(rng) for p in parties]
    return run_interactive_with_tapes(parties, curator, x, rounds, tapes)


def enumerate_interactive(
    parties: Sequence[InteractiveParty],
    curator: Curator,
    x: Bits,
    rounds: int,
) -> Dict[Tuple, Tuple[float, Any]]:
    """Exact view distribution by enumerating all joint tape assignments.

    Returns ``{view.answers: (probability, output)}``.  Requires every party to
    declare a finite ``tape_space``.  The input, party count and ``rounds`` are
    checked once; every joint tape is then replayed, each party once per
    (tape, history) through one ``_InternedHistories`` for the call, and each
    run's probability is added to its view's with one hash of the view, in
    ``joint_tapes`` order.
    """
    xs = _check_interactive(parties, x, rounds)
    spaces = [None if party.tape_space is None else party.tape_space() for party in parties]
    table = _InternedHistories()
    out: Dict[Tuple, List[Any]] = {}  # each view's [probability, output]
    for tapes, prob in joint_tapes(spaces):
        output, view = _replay_interactive(parties, curator, xs, rounds, tapes, table)
        out.setdefault(view.answers, [0.0, output])[0] += prob
    return {answers: (prob, output) for answers, (prob, output) in out.items()}


# ---------------------------------------------------------------------------
# Sum protocols
# ---------------------------------------------------------------------------


def rr_debias(count, n: int, p: FlipParams):
    """Unbiased sum estimate from the count (or an integer array of counts) of reported ones."""
    return (count - (0.5 - p.flip_bias) * n) / (2.0 * p.flip_bias)


def randomized_response_sum(
    x: Bits, eps: float, rng: np.random.Generator
) -> Tuple[float, CuratorView]:
    """Non-interactive randomized-response protocol for the binary sum.

    Each party reports its bit flipped with bias eps/(4+2*eps); the curator
    counts the reported ones and debiases.  The estimate is unbiased with
    variance n(0.25 - bias^2)/(4*bias^2), i.e. error on the order of
    sqrt(n)/eps.
    """
    p = flip_bias_for(eps)
    bits = as_bits(x)
    z = flip(bits, p, rng)
    view = CuratorView(answers=(z,))
    return rr_debias(float(np.count_nonzero(z)), bits.size, p), view


def rr_count_distribution(x: Bits, p: FlipParams) -> Dict[int, float]:
    """Exact distribution of the curator's count of reported ones.

    Convolution of the per-party Bernoulli report probabilities; feasible
    for small n and used by symmetry and permutation audits.
    """
    dist = np.array([1.0])
    for b in as_bits(x).tolist():
        q = flip_output_prob(b, 1, p)
        dist = np.convolve(dist, (1.0 - q, q))
    return {k: float(v) for k, v in enumerate(dist)}


def rr_report_counts(
    n: int, s, p: FlipParams, rng: np.random.Generator, size: Optional[int] = None
) -> np.ndarray:
    """Counts of reported ones when ``s`` of ``n`` parties hold a one, as int64.

    The count is a sum of independent Bernoullis, keep on the s one-bits
    and 1-keep on the n-s zero-bits, so drawing Bin(s, keep) and then
    Bin(n-s, 1-keep), added in place, is distribution-identical to flipping
    bit by bit.  ``s`` is an int (with ``size`` draws) or an array of input
    sums (one draw each).
    """
    counts = rng.binomial(s, p.keep_prob, size=size)
    counts += rng.binomial(n - s, 1.0 - p.keep_prob, size=size)
    return counts


def rr_report_count_chunks(
    n: int, sums: Sequence[np.ndarray], p: FlipParams, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """``rr_report_counts`` of the concatenated ``sums``, one int64 chunk per array of sums.

    The draws are those of the one call: Bin(s, keep) for every chunk at
    once, here, kept in the dtype of its sums (a count never exceeds its
    sum), then Bin(n-s, 1-keep) for one chunk per step of the iterator.  So
    only one chunk's counts are held at a time.  Nothing else may draw from
    ``rng`` until the iterator is spent.
    """
    kept = [rng.binomial(s, p.keep_prob).astype(s.dtype) for s in sums]
    return (rng.binomial(n - s, 1.0 - p.keep_prob) + k for s, k in zip(sums, kept))


def rr_estimate_batch(
    x: Bits, eps: float, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Sum estimates from ``trials`` independent randomized-response runs.

    Each run's count is drawn by ``rr_report_counts``, which is fast enough
    for million-trial audits.
    """
    p = flip_bias_for(eps)
    bits = as_bits(x)
    n = bits.size
    return rr_debias(rr_report_counts(n, int(bits.sum()), p, rng, size=trials), n, p)


# ---------------------------------------------------------------------------
# Protocol reductions
# ---------------------------------------------------------------------------


def sum_to_gap(
    estimate_protocol: Callable[[Bits, np.random.Generator], Tuple[float, Any]], p: GapParams
) -> Callable[[Bits, np.random.Generator], Tuple[int, Any]]:
    """Turn a sum-estimating protocol into a gap-threshold protocol.

    Both return (output, aux): the estimate, or the 0/1 answer, with the
    protocol's view or execution.  Output 0 when the estimate is at most
    kappa + tau/2 (ties included), else 1.  Round and message counts are
    unchanged; only the final output map differs.
    """
    threshold = p.kappa + p.tau / 2.0

    def gap_protocol(x: Bits, rng: np.random.Generator) -> Tuple[int, Any]:
        estimate, aux = estimate_protocol(x, rng)
        return (0 if estimate <= threshold else 1), aux

    return gap_protocol
