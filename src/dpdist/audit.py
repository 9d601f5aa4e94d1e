"""Privacy and accuracy auditing.

Computes exact privacy loss for finite sanitizers and runs the
likelihood-ratio audit that underlies the sqrt(n)-error phase transition:
inputs are drawn from a planted sparse Bernoulli distribution, each curator
view is scored by how much more likely it is under the planted inputs than
under the all-zero input, and the per-party log ratios are checked against
their hard range, expectation, and tail bounds.  A distinguisher experiment
measures how often a gap-threshold protocol confuses the two input families.

All probability computations go through the sanitizers' exact output-prob
oracles; sampled frequencies are never used for hard-bound assertions.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .local_model import CuratorView, SanitizerSpec, enumerate_noninteractive, flip_sanitizer, rr_report_counts
from .mechanisms import FlipParams

__all__ = [
    "SparseBernoulli",
    "sample_sparse",
    "sample_sparse_sums",
    "round_budget",
    "privacy_loss",
    "exact_epsilon",
    "RatioStats",
    "likelihood_ratios",
    "FlipPanel",
    "flip_panel",
    "TailCheck",
    "hoeffding_bound",
    "hoeffding_tail_check",
    "view_probability_transfer",
    "chernoff_lower_tail_bound",
    "chernoff_tail_check",
    "DistinguisherReport",
    "distinguisher_experiment",
    "EquivalenceReport",
    "definition_equivalence_check",
]


@dataclass(frozen=True)
class SparseBernoulli:
    """Planted input distribution: i.i.d. one-bits with density 1/(eps*sqrt(d*n)).

    ``d`` > 1 budgets the number of rounds audited; increasing it thins the
    planted ones and proportionally tightens every per-party ratio bound.
    The density is exposed as ``density`` (the flip bias of the
    randomized-response mechanism is a different quantity).  ``n`` goes
    through ``operator.index``, so a float such as 10000.5 raises
    ``TypeError`` rather than being truncated by the binomial draws.
    """

    n: int
    eps: float
    d: float

    def __post_init__(self):
        object.__setattr__(self, "n", operator.index(self.n))
        if self.n < 1:
            raise ValueError("n must be positive")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not 1 < self.d < math.inf:
            raise ValueError("d must exceed 1 and be finite")
        if not 0.0 < self.density < 0.5:
            raise ValueError("density must lie in (0, 0.5); increase n, eps, or d")

    @property
    def density(self) -> float:
        return 1.0 / (self.eps * math.sqrt(self.d * self.n))

    @property
    def expected_sum(self) -> float:
        return self.density * self.n


def sample_sparse(p: SparseBernoulli, rng: np.random.Generator) -> np.ndarray:
    """One input draw: an i.i.d. Bernoulli(density) bit vector."""
    return (rng.random(p.n) < p.density).astype(np.uint8)


def sample_sparse_sums(p: SparseBernoulli, trials: int, rng: np.random.Generator) -> np.ndarray:
    """Input sums of ``trials`` draws; Binomial(n, density), drawn directly."""
    return rng.binomial(p.n, p.density, size=trials)


# The multi-round tail bound that ``round_budget``'s nu meets over all rounds.
_ROUND_BUDGET_BETA = 0.05


def round_budget(ell: int) -> Tuple[float, float]:
    """Default (d, nu) for auditing an ``ell``-round protocol.

    d scales as ell^2 log(ell) so the planted density thins enough to
    absorb ell rounds of leakage.  nu = 32 + sqrt(32 d ln(ell / beta)),
    with beta = ``_ROUND_BUDGET_BETA``, is the threshold at which
    ``view_probability_transfer``'s bound, ell * ``hoeffding_bound(nu, d)``,
    equals beta at every ell.  Callers needing other constants pass d and
    nu explicitly.
    """
    if not (1 <= ell < math.inf and ell == int(ell)):  # max(4.0, nan) would return 4.0; 1.5 is no round count
        raise ValueError(f"ell must be a finite integer of at least 1; got {ell!r}")
    d = max(4.0, 16.0 * ell * ell * math.log(ell + 2))
    nu = 32.0 + math.sqrt(32.0 * d * math.log(ell / _ROUND_BUDGET_BETA))
    return d, nu


# ---------------------------------------------------------------------------
# Exact privacy loss
# ---------------------------------------------------------------------------


def privacy_loss(p: Dict[Any, float], q: Dict[Any, float]) -> Dict[Any, float]:
    """ln(p[k] / q[k]) over the keys ``p`` or ``q`` makes positive, ``p``'s first; +inf if only p, -inf if only q."""
    loss = {}
    for k, pk in p.items():
        qk = q.get(k, 0.0)
        if pk > 0.0:
            loss[k] = math.log(pk / qk) if qk > 0.0 else math.inf
        elif qk > 0.0:
            loss[k] = -math.inf
    for k, qk in q.items():
        if qk > 0.0 and k not in p:
            loss[k] = -math.inf
    return loss


def exact_epsilon(s: SanitizerSpec) -> float:
    """Worst-case log probability ratio of a finite binary-input sanitizer.

    Returns max over inputs x, y and outputs c of ln(P[x->c]/P[y->c]);
    +inf when some output is possible under one input but not the other
    (infinite loss is a valid return, not an error).
    """
    return max(map(abs, privacy_loss(s.distribution(1), s.distribution(0)).values()), default=0.0)


# ---------------------------------------------------------------------------
# Likelihood ratios of curator views
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatioStats:
    """Per-party likelihood ratios of one curator view.

    ``per_party_ratios[i]`` compares the probability of party i's messages
    under the planted input distribution against the all-zero input;
    ``total_ratio`` is their product, the full view's ratio.
    """

    per_party_ratios: np.ndarray
    log_ratios: np.ndarray
    total_ratio: float
    infinite: bool


def likelihood_ratios(
    sanitizers: Sequence[SanitizerSpec], view: CuratorView, p: SparseBernoulli
) -> RatioStats:
    """Score a curator view by its planted-vs-zero likelihood ratios.

    For each party the probability of its recorded messages is evaluated
    under input 1 and input 0 through its sanitizer's exact oracle, which
    serves every round (multi-round transcripts factor round by round); the
    planted-side probability mixes the two with weight ``density`` on input
    1.  A zero denominator with positive numerator yields an infinite ratio,
    reported via the ``infinite`` flag rather than clamped.
    """
    n, rounds = view.n, view.rounds
    if len(sanitizers) != n:
        raise ValueError("need sanitizers for every party")
    a = p.density
    ratios = np.empty(n)
    infinite = False
    for i, spec in enumerate(sanitizers):
        prob1 = prob0 = 1.0
        for r in range(rounds):
            symbol = view.answers[r][i]
            prob1 *= spec.output_prob(1, symbol)
            prob0 *= spec.output_prob(0, symbol)
        mixed = a * prob1 + (1.0 - a) * prob0
        if prob0 == 0.0:
            ratios[i] = math.inf if mixed > 0.0 else math.nan
            infinite = True
        else:
            ratios[i] = mixed / prob0
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(ratios)
    total = float(np.exp(logs.sum())) if not infinite else math.inf
    return RatioStats(
        per_party_ratios=ratios, log_ratios=logs, total_ratio=total, infinite=infinite
    )


# ---------------------------------------------------------------------------
# Ratio statistics and bounds
# ---------------------------------------------------------------------------


def _ratio_hard_bound(p: SparseBernoulli) -> float:
    """Hard range of per-party log ratios for 2*eps-private sanitizers."""
    return 4.0 * p.density * p.eps


@dataclass(frozen=True)
class FlipPanel:
    """Vectorized ratio audit of n identical randomized-response sanitizers.

    With a single binary flip sanitizer shared by all parties, a view's
    ratio statistics depend only on how many parties reported 1: each
    report contributes ``v_one`` or ``v_zero`` to the log total.  Sampling
    the report count as Bin(s, keep) + Bin(n-s, 1-keep), with s the planted
    input sum, is distribution-identical to flipping bit by bit, so
    million-view panels run in vectorized time.
    """

    v_one: float
    v_zero: float
    log_totals: np.ndarray
    hard_violations: int
    max_abs: float

    @property
    def trials(self) -> int:
        return self.log_totals.size

    def mean_log_total(self) -> float:
        return float(self.log_totals.mean())

    def log_total_se(self) -> float:
        return float(self.log_totals.std(ddof=1) / math.sqrt(self.trials))


def flip_panel(
    p: SparseBernoulli, flip: FlipParams, trials: int, rng: np.random.Generator
) -> FlipPanel:
    """Sample ``trials`` planted-input views of the flip protocol and score them."""
    a, n = p.density, p.n
    # exact per-report log ratios of the planted law against input 0, from the flip oracle
    d0, d1 = map(flip_sanitizer(flip).distribution, (0, 1))
    loss = privacy_loss({c: a * d1[c] + (1.0 - a) * d0[c] for c in d0}, d0)
    v_one, v_zero = loss[1], loss[0]

    k = rr_report_counts(n, sample_sparse_sums(p, trials, rng), flip, rng)
    log_totals = k * v_one + (n - k) * v_zero

    hard = _ratio_hard_bound(p)
    viol = 0
    if abs(v_one) > hard:
        viol += int(k.sum())
    if abs(v_zero) > hard:
        viol += int((n - k).sum())
    max_abs = 0.0
    if (k > 0).any():
        max_abs = max(max_abs, abs(v_one))
    if (k < n).any():
        max_abs = max(max_abs, abs(v_zero))
    return FlipPanel(
        v_one=v_one,
        v_zero=v_zero,
        log_totals=log_totals,
        hard_violations=viol,
        max_abs=max_abs,
    )


@dataclass(frozen=True)
class TailCheck:
    """Empirical tail rate against an analytic bound (plus sampling slack)."""

    empirical_rate: float
    bound: float
    stderr: float

    @property
    def passed(self) -> bool:
        return self.empirical_rate <= self.bound + 3.0 * self.stderr


def hoeffding_bound(nu: float, d: float) -> float:
    """Tail bound exp(-(nu-32)^2 / (32 d)) on the total-ratio excess."""
    if not nu > 32:
        raise ValueError("nu must exceed 32")
    if not 0 < d < math.inf:
        raise ValueError("d must be finite and positive")
    return math.exp(-((nu - 32.0) ** 2) / (32.0 * d))


def _tail_check(exceeds: np.ndarray, bound: float) -> TailCheck:
    """Rate of the sampled tail events ``exceeds`` against ``bound``."""
    trials = exceeds.size
    if trials == 0:
        raise ValueError("a tail check needs at least one sample")
    rate = float(np.mean(exceeds))
    stderr = math.sqrt(rate * (1.0 - rate) / trials)
    return TailCheck(empirical_rate=rate, bound=bound, stderr=stderr)


def hoeffding_tail_check(log_totals: np.ndarray, nu: float, d: float) -> TailCheck:
    """Check how often the view ratio exceeds e^(nu/d) on planted inputs.

    ``log_totals`` are per-view log ratios of planted-input views; the
    audit passes when the empirical exceedance rate is within three
    standard errors of the analytic tail bound.  This is the one-round
    case of ``view_probability_transfer``.
    """
    return view_probability_transfer(log_totals, nu, d, ell=1)


def view_probability_transfer(
    log_totals: np.ndarray, nu: float, d: float, ell: int
) -> TailCheck:
    """Multi-round transfer: views rarely become e^(ell*nu/d) more likely.

    ``log_totals`` must be exact per-view log ratios of an ``ell``-round
    protocol whose per-round answer maps are each 2*eps-private.  The
    violation rate is checked against ell times the single-round bound.
    """
    if not (1 <= ell < math.inf and ell == int(ell)):  # NaN fails every comparison; inf and 1.5 are no round count
        raise ValueError(f"ell must be a finite integer of at least 1; got {ell!r}")
    bound = ell * hoeffding_bound(nu, d)
    log_totals = np.asarray(log_totals, dtype=float)
    return _tail_check(log_totals > ell * nu / d, bound)


def chernoff_lower_tail_bound(p: SparseBernoulli, gamma: float) -> float:
    """Bound exp(-gamma^2 sqrt(n) / (2 eps sqrt(d))) on a thin planted sum."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    return math.exp(-(gamma**2) * math.sqrt(p.n) / (2.0 * p.eps * math.sqrt(p.d)))


def chernoff_tail_check(
    input_sums: np.ndarray, p: SparseBernoulli, gamma: float
) -> TailCheck:
    """Check the planted input sum's lower tail against its Chernoff bound."""
    bound = chernoff_lower_tail_bound(p, gamma)
    sums = np.asarray(input_sums)
    return _tail_check(sums <= (1.0 - gamma) * p.expected_sum, bound)


# ---------------------------------------------------------------------------
# Distinguisher experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistinguisherReport:
    """Error rates of a gap protocol on planted inputs vs the all-zero input.

    ``error_case_i`` is the rate (over all planted trials) of drawing an
    input with sum >= tau yet answering 0; ``error_case_ii`` is the rate of
    answering 1 on the all-zero input.
    """

    error_case_i: float
    error_case_ii: float
    tau: float

    @property
    def max_error(self) -> float:
        return max(self.error_case_i, self.error_case_ii)


def distinguisher_experiment(
    gap_protocol: Callable[[np.ndarray, np.random.Generator], Tuple[int, Any]],
    p: SparseBernoulli,
    tau: Optional[float] = None,
    trials: int = 1000,
    *,
    rng: np.random.Generator,
) -> DistinguisherReport:
    """Measure both failure modes of a 0/1 gap protocol.

    ``gap_protocol`` returns (answer, aux), as ``sum_to_gap``'s do.  Runs
    the protocol on planted inputs and on the all-zero input; a protocol
    that tracks the true sum to within the planted sum's scale must exhibit
    at least one error rate bounded away from zero when tau is half the
    expected planted sum (the default).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if tau is None:
        tau = p.expected_sum / 2.0
    if not math.isfinite(tau):  # a NaN tau makes every sum >= tau false
        raise ValueError(f"tau must be finite; got {tau!r}")
    zeros = np.zeros(p.n, dtype=np.uint8)
    err_i = err_ii = 0
    for _ in range(trials):
        x = sample_sparse(p, rng)
        out, _ = gap_protocol(x, rng)
        if int(x.sum()) >= tau and int(out) == 0:
            err_i += 1
        out0, _ = gap_protocol(zeros, rng)
        if int(out0) == 1:
            err_ii += 1
    return DistinguisherReport(
        error_case_i=err_i / trials,
        error_case_ii=err_ii / trials,
        tau=float(tau),
    )


# ---------------------------------------------------------------------------
# Collective vs individual privacy
# ---------------------------------------------------------------------------


_EQUIVALENCE_REL_TOL = 1e-12


@dataclass(frozen=True)
class EquivalenceReport:
    """Worst-case view ratio computed two ways: jointly and per party."""

    collective: float
    individual: float

    @property
    def passed(self) -> bool:
        if math.isinf(self.collective) or math.isinf(self.individual):
            return math.isinf(self.collective) and math.isinf(self.individual)
        scale = max(abs(self.collective), abs(self.individual), 1e-300)
        return abs(self.collective - self.individual) <= _EQUIVALENCE_REL_TOL * scale


def definition_equivalence_check(sanitizers: Sequence[SanitizerSpec]) -> EquivalenceReport:
    """Exhaustively compare the joint and per-party privacy maxima.

    The collective figure maximizes ln(P[view|x]/P[view|x']) over all
    neighboring input pairs and full views; the individual figure is the
    largest single-sanitizer worst-case ratio.  The two must agree, which
    is what makes auditing one party at a time sound.  Each of the 2^n
    inputs is enumerated once; enumeration is exponential in n, so this is
    intended for n <= 4.
    """
    n = len(sanitizers)
    individual = max(exact_epsilon(s) for s in sanitizers)
    dists = {
        bits: enumerate_noninteractive(sanitizers, np.array(bits, dtype=np.uint8))
        for bits in np.ndindex(*((2,) * n))
    }
    pairs = ((x, dists[bits[:i] + (1 - bits[i],) + bits[i + 1 :]]) for bits, x in dists.items() for i in range(n))
    collective = max([0.0, *(loss for x, y in pairs for loss in privacy_loss(x, y).values())])
    return EquivalenceReport(collective=collective, individual=individual)
