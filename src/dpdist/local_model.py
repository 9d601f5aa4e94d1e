"""The local communication model: parties talk only to an untrusted curator.

Non-interactive protocols have each party apply a sanitizing map to its own
bit and send one message; interactive protocols proceed in rounds of
deterministic curator queries followed by party answers.  The curator is a
deterministic function of what it has received, so its view is exactly the
ordered message log.

Includes the two classic sum protocols: randomized response with debiasing,
and direct submission of Laplace-noised bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import Bits, GapParams, as_bits
from .mechanisms import (
    FlipParams,
    LaplaceParams,
    flip,
    flip_bias_for,
    flip_output_prob,
    sample_laplace,
)

__all__ = [
    "ProtocolAbortError",
    "SanitizerSpec",
    "flip_sanitizer",
    "identity_sanitizer",
    "constant_sanitizer",
    "laplace_sanitizer",
    "CuratorView",
    "run_noninteractive",
    "enumerate_noninteractive",
    "joint_tapes",
    "tape_mass",
    "InteractiveParty",
    "Curator",
    "flip_party",
    "run_interactive",
    "run_interactive_with_tapes",
    "enumerate_interactive",
    "party_consistent_probability",
    "randomized_response_sum",
    "rr_debias",
    "rr_count_distribution",
    "rr_estimate_batch",
    "laplace_submission_sum",
    "sum_to_gap",
    "gapk_to_gap0",
]


class ProtocolAbortError(RuntimeError):
    """A party's answer function failed mid-protocol."""


# ---------------------------------------------------------------------------
# Sanitizers (non-interactive party programs)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SanitizerSpec:
    """A single party's randomized map from its input bit to one message.

    ``output_prob(x, symbol)`` is the exact probability oracle; it is
    required for finite alphabets and drives all exact audits.  Real-valued
    sanitizers set ``alphabet=None`` and ``output_prob=None`` and are
    excluded from exact-enumeration audits.  ``claimed_epsilon`` is the
    privacy level the sanitizer declares; the audit module can verify it
    for finite alphabets.
    """

    name: str
    alphabet: Optional[Tuple[Any, ...]]
    output_prob: Optional[Callable[[int, Any], float]]
    sample: Callable[[int, np.random.Generator], Any]
    sample_many: Optional[Callable[[np.ndarray, np.random.Generator], np.ndarray]] = None
    claimed_epsilon: Optional[float] = None

    def distribution(self, x: int) -> Dict[Any, float]:
        """Exact output distribution on input ``x`` (finite alphabets only)."""
        if self.alphabet is None or self.output_prob is None:
            raise ValueError(f"sanitizer {self.name!r} has no exact oracle")
        return {c: self.output_prob(x, c) for c in self.alphabet}


def flip_sanitizer(p: FlipParams) -> SanitizerSpec:
    """Randomized-response sanitizer: keep the bit w.p. 0.5 + flip_bias."""
    return SanitizerSpec(
        name=f"flip(bias={p.flip_bias:g})",
        alphabet=(0, 1),
        output_prob=lambda x, c: flip_output_prob(x, c, p),
        sample=lambda x, rng: flip(x, p, rng),
        sample_many=lambda xs, rng: flip(xs, p, rng),
        claimed_epsilon=p.exact_epsilon,
    )


def identity_sanitizer() -> SanitizerSpec:
    """Sends the input bit in the clear (infinite privacy loss)."""
    return SanitizerSpec(
        name="identity",
        alphabet=(0, 1),
        output_prob=lambda x, c: 1.0 if c == x else 0.0,
        sample=lambda x, rng: int(x),
        sample_many=lambda xs, rng: np.asarray(xs, dtype=np.uint8),
        claimed_epsilon=math.inf,
    )


def constant_sanitizer(symbol: Any = 0) -> SanitizerSpec:
    """Ignores the input and always sends ``symbol`` (zero privacy loss)."""
    return SanitizerSpec(
        name=f"constant({symbol!r})",
        alphabet=(symbol,),
        output_prob=lambda x, c: 1.0 if c == symbol else 0.0,
        sample=lambda x, rng: symbol,
        sample_many=lambda xs, rng: np.full(np.asarray(xs).shape, symbol),
        claimed_epsilon=0.0,
    )


def laplace_sanitizer(eps: float) -> SanitizerSpec:
    """Sends x + Lap(1/eps); real-valued, so no exact oracle."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    p = LaplaceParams(1.0 / eps)
    return SanitizerSpec(
        name=f"laplace(eps={eps:g})",
        alphabet=None,
        output_prob=None,
        sample=lambda x, rng: x + sample_laplace(p, rng),
        sample_many=lambda xs, rng: xs + sample_laplace(p, rng, size=np.asarray(xs).shape),
        claimed_epsilon=eps,
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

    def key(self) -> Tuple:
        """Hashable identity of the received-message log."""
        return tuple(tuple(map(_plain, roundmsgs)) for roundmsgs in self.answers)


def _plain(symbol: Any) -> Any:
    """Strip numpy scalar types so view keys compare and hash plainly."""
    if isinstance(symbol, np.generic):
        return symbol.item()
    return symbol


# ---------------------------------------------------------------------------
# Non-interactive runner
# ---------------------------------------------------------------------------


def run_noninteractive(
    sanitizers: Sequence[SanitizerSpec],
    curator_fn: Callable[[Sequence[Any]], Any],
    x: Bits,
    rng: np.random.Generator,
) -> Tuple[Any, CuratorView]:
    """One-round local protocol: sanitize each bit independently, aggregate.

    Returns the curator's output and its full view for auditing.  If every spec equals
    the first (callables compare by identity), one ``sample_many`` draws all symbols.
    """
    bits = as_bits(x)
    if len(sanitizers) != bits.size:
        raise ValueError("need exactly one sanitizer per party")
    first = sanitizers[0] if sanitizers else None
    if bits.size and sanitizers.count(first) == bits.size and first.sample_many is not None:
        symbols = first.sample_many(bits, rng)
    else:
        symbols = [s.sample(b, rng) for s, b in zip(sanitizers, bits.tolist())]
        try:
            symbols = np.asarray(symbols)
        except Exception:  # symbols of mixed type stay a list
            symbols = list(symbols)
    view = CuratorView(answers=(symbols,))
    return curator_fn(symbols), view


def enumerate_noninteractive(
    sanitizers: Sequence[SanitizerSpec], x: Bits
) -> Dict[Tuple[Any, ...], float]:
    """Exact distribution over curator views (finite alphabets only).

    Maps each possible message vector c to its probability, the product of
    the per-party output probabilities.
    """
    bits = as_bits(x)
    spaces = [s.distribution(b).items() for s, b in zip(sanitizers, bits.tolist())]
    out: Dict[Tuple[Any, ...], float] = {}
    for c, prob in joint_tapes(spaces):
        out[c] = out.get(c, 0.0) + prob
    return out


# ---------------------------------------------------------------------------
# Finite tapes: joint enumeration and transcript replay
# ---------------------------------------------------------------------------


def joint_tapes(
    spaces: Sequence[Iterable[Tuple[Any, float]]],
) -> Iterator[Tuple[Tuple[Any, ...], float]]:
    """Every joint assignment of independent finite tapes, with its probability.

    ``spaces[i]`` lists the (tape, probability) pairs of the i-th tape (a
    party's, or one round's of a party).  Assignments
    come in ``itertools.product`` order as (tapes, probability); the
    probability is the product of the parties' probabilities taken left to
    right from 1.0, and assignments of probability zero are skipped.
    """
    spaces = [list(space) for space in spaces]  # a space may be a one-pass iterator
    tapes = itertools.product(*[[tape for tape, _ in space] for space in spaces])
    probs = itertools.product(*[[p for _, p in space] for space in spaces])
    for combo, ps in zip(tapes, probs):
        prob = math.prod(ps, start=1.0)
        if prob > 0.0:
            yield combo, prob


def tape_mass(space: Iterable[Tuple[Any, float]], reproduces: Callable[[Any], bool]) -> float:
    """Total probability of the tapes in ``space`` for which ``reproduces`` holds.

    Zero-probability tapes are skipped without being replayed.  This is the
    probability that a party behaves exactly as in a fixed transcript, when
    ``reproduces`` replays the party's program on one tape.
    """
    total = 0.0
    for tape, prob in space:
        if prob != 0.0 and reproduces(tape):
            total += prob
    return total


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


def _replay_interactive(
    parties: Sequence[InteractiveParty],
    curator: Curator,
    xs: List[int],
    rounds: int,
    tapes: Sequence[Any],
) -> Tuple[Any, CuratorView]:
    """One run on fixed tapes, with ``_check_interactive``'s bits."""
    n = len(xs)
    answer_hist: Tuple[Tuple[Any, ...], ...] = ()
    query_hist: Tuple[Tuple[Any, ...], ...] = ()
    per_party_queries: List[Tuple[Any, ...]] = [()] * n
    for j in range(1, rounds + 1):
        qs = tuple(curator.query(j, answer_hist))
        if len(qs) != n:
            raise ValueError("curator must issue one query per party")
        query_hist += (qs,)
        answers = []
        for i, party in enumerate(parties):
            per_party_queries[i] += (qs[i],)
            try:
                a = party.answer(xs[i], per_party_queries[i], tapes[i])
            except Exception as exc:
                raise ProtocolAbortError(
                    f"party {i} failed answering round {j}: {exc}"
                ) from exc
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
    """Deterministic execution with the parties' tapes fixed."""
    xs = _check_interactive(parties, x, rounds)
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

    Returns ``{view_key: (probability, output)}``.  Requires every party to
    declare a finite ``tape_space``.  The input, party count and ``rounds`` are
    checked once; every joint tape is then replayed.
    """
    xs = _check_interactive(parties, x, rounds)
    spaces = []
    for i, party in enumerate(parties):
        if party.tape_space is None:
            raise ValueError(f"party {i} has no finite tape space")
        spaces.append(party.tape_space())
    out: Dict[Tuple, Tuple[float, Any]] = {}
    for tapes, prob in joint_tapes(spaces):
        output, view = _replay_interactive(parties, curator, xs, rounds, tapes)
        key = view.key()
        if key in out:
            out[key] = (out[key][0] + prob, out[key][1])
        else:
            out[key] = (prob, output)
    return out


def party_consistent_probability(
    party: InteractiveParty,
    x_i: int,
    queries: Sequence[Any],
    answers: Sequence[Any],
) -> float:
    """Probability that the party answers exactly as in a fixed transcript.

    Sums tape probabilities over tapes that reproduce ``answers`` when the
    party is fed ``queries`` round by round.
    """
    if party.tape_space is None:
        raise ValueError("party has no finite tape space")

    def reproduces(tape: Any) -> bool:
        return all(
            _plain(party.answer(int(x_i), tuple(queries[: j + 1]), tape)) == _plain(a)
            for j, a in enumerate(answers)
        )

    return tape_mass(party.tape_space(), reproduces)


# ---------------------------------------------------------------------------
# Sum protocols
# ---------------------------------------------------------------------------


def rr_debias(count: float, n: int, p: FlipParams) -> float:
    """Unbiased sum estimate from the count of reported ones."""
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
    return rr_debias(float(np.sum(z)), bits.size, p), view


def rr_count_distribution(x: Bits, p: FlipParams) -> Dict[int, float]:
    """Exact distribution of the curator's count of reported ones.

    Convolution of the per-party Bernoulli report probabilities; feasible
    for small n and used by symmetry and permutation audits.
    """
    bits = as_bits(x)
    dist = np.array([1.0])
    for b in bits:
        q = flip_output_prob(int(b), 1, p)
        nxt = np.zeros(dist.size + 1)
        nxt[: dist.size] += dist * (1.0 - q)
        nxt[1:] += dist * q
        dist = nxt
    return {k: float(v) for k, v in enumerate(dist)}


def rr_estimate_batch(
    x: Bits, eps: float, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Sum estimates from ``trials`` independent randomized-response runs.

    The curator's count is a sum of independent Bernoullis: success
    probability 0.5+bias on the s one-bits and 0.5-bias on the n-s
    zero-bits.  Sampling it as Bin(s, 0.5+bias) + Bin(n-s, 0.5-bias) is
    therefore distribution-identical to flipping bit by bit, and fast
    enough for million-trial audits.
    """
    p = flip_bias_for(eps)
    bits = as_bits(x)
    n, s = bits.size, int(bits.sum())
    counts = rng.binomial(s, p.keep_prob, size=trials) + rng.binomial(
        n - s, 1.0 - p.keep_prob, size=trials
    )
    return rr_debias(counts.astype(float), n, p)


def laplace_submission_sum(
    x: Bits, eps: float, rng: np.random.Generator
) -> Tuple[float, CuratorView]:
    """Each party submits its bit plus Lap(1/eps); the curator just sums.

    The estimate is unbiased with variance 2n/eps^2.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    bits = as_bits(x)
    z = bits + sample_laplace(LaplaceParams(1.0 / eps), rng, size=bits.size)
    return float(np.sum(z)), CuratorView(answers=(z,))


# ---------------------------------------------------------------------------
# Protocol reductions
# ---------------------------------------------------------------------------


def _as_result(res: Any) -> Tuple[Any, Any]:
    if isinstance(res, tuple) and len(res) == 2:
        return res
    return res, None


def sum_to_gap(
    estimate_protocol: Callable[[Bits, np.random.Generator], Any], p: GapParams
) -> Callable[[Bits, np.random.Generator], Tuple[int, Any]]:
    """Turn a sum-estimating protocol into a gap-threshold protocol.

    Output 0 when the estimate is at most kappa + tau/2 (ties included),
    else 1.  Round and message counts are unchanged; only the final output
    map differs.
    """
    threshold = p.kappa + p.tau / 2.0

    def gap_protocol(x: Bits, rng: np.random.Generator) -> Tuple[int, Any]:
        estimate, aux = _as_result(estimate_protocol(x, rng))
        return (0 if estimate <= threshold else 1), aux

    return gap_protocol


def gapk_to_gap0(
    gap_protocol: Callable[[Bits, np.random.Generator], Any],
    n: int,
    p: GapParams,
) -> Callable[[Bits, np.random.Generator], Tuple[int, Any]]:
    """Reduce an n-party gap-kappa protocol to an n/2-party gap-0 protocol.

    For kappa <= n/2 a designated party simulates the upper n/2 parties
    with exactly kappa fixed ones.  For kappa > n/2 all input bits are
    flipped, the protocol is run with the complementary threshold
    n - kappa - tau, and the result is flipped.
    """
    if n % 2 != 0:
        raise ValueError("n must be even")
    kappa, tau = p.kappa, p.tau
    if not 0 <= kappa <= n - tau:
        raise ValueError("kappa must lie in [0, n - tau]")
    half = n // 2
    # Flipping every input bit swaps sum s for n - s, so for kappa > n/2 the
    # given protocol run on the complement decides the threshold
    # n - kappa - tau; flipping its answer yields the original orientation.
    flipped = kappa > half
    ones = n - kappa - tau if flipped else kappa
    pad = np.concatenate([np.ones(ones, dtype=np.uint8), np.zeros(half - ones, dtype=np.uint8)])

    def reduced(x_half: Bits, rng: np.random.Generator) -> Tuple[int, Any]:
        bits = as_bits(x_half)
        if bits.size != half:
            raise ValueError(f"reduced protocol expects {half} parties")
        y = np.concatenate([bits, pad])
        out, aux = _as_result(gap_protocol(1 - y if flipped else y, rng))
        return (1 - int(out) if flipped else int(out)), aux

    return reduced
