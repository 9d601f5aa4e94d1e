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
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .local_model import CuratorView, SanitizerSpec, enumerate_noninteractive
from .mechanisms import FlipParams

__all__ = [
    "SparseBernoulli",
    "sample_sparse",
    "sample_sparse_sums",
    "round_budget",
    "exact_epsilon",
    "RatioStats",
    "likelihood_ratios",
    "VSummary",
    "v_statistics",
    "FlipPanel",
    "flip_panel",
    "TailCheck",
    "hoeffding_bound",
    "hoeffding_tail_check",
    "view_probability_transfer",
    "empirical_log_ratios",
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
    randomized-response mechanism is a different quantity).
    """

    n: int
    eps: float
    d: float

    def __post_init__(self):
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


def round_budget(ell: int) -> Tuple[float, float]:
    """Default (d, nu) for auditing an ``ell``-round protocol.

    Only the growth orders matter: d scales as ell^2 log(ell) so the
    planted density thins enough to absorb ell rounds of leakage, and nu as
    ell log(ell) so the per-round tail bound stays summable.  The constants
    here are one workable choice; callers needing different ones pass d and
    nu explicitly.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    d = max(4.0, 16.0 * ell * ell * math.log(ell + 2))
    nu = max(64.0, 16.0 * ell * math.log(ell + 2))
    return d, nu


# ---------------------------------------------------------------------------
# Exact privacy loss
# ---------------------------------------------------------------------------


def exact_epsilon(s: SanitizerSpec) -> float:
    """Worst-case log probability ratio of a finite binary-input sanitizer.

    Returns max over inputs x, y and outputs c of ln(P[x->c]/P[y->c]);
    +inf when some output is possible under one input but not the other
    (infinite loss is a valid return, not an error).
    """
    d0, d1 = s.distribution(0), s.distribution(1)
    worst = 0.0
    for c in s.alphabet:
        p0, p1 = d0[c], d1[c]
        if p0 == 0.0 and p1 == 0.0:
            continue
        if p0 == 0.0 or p1 == 0.0:
            return math.inf
        worst = max(worst, abs(math.log(p1 / p0)))
    return worst


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

    @property
    def log_total(self) -> float:
        return float(self.log_ratios.sum())


def _per_round_sanitizers(
    sanitizers: Sequence, rounds: int
) -> List[Tuple[SanitizerSpec, ...]]:
    per_party = []
    for s in sanitizers:
        if isinstance(s, SanitizerSpec):
            per_party.append((s,) * rounds)
        else:
            s = tuple(s)
            if len(s) != rounds:
                raise ValueError("need one sanitizer per round for each party")
            per_party.append(s)
    return per_party


def likelihood_ratios(
    sanitizers: Sequence, view: CuratorView, p: SparseBernoulli
) -> RatioStats:
    """Score a curator view by its planted-vs-zero likelihood ratios.

    For each party the probability of its recorded messages is evaluated
    under input 1 and input 0 through the exact oracles (multi-round
    transcripts factor round by round); the planted-side probability mixes
    the two with weight ``density`` on input 1.  A zero denominator with
    positive numerator yields an infinite ratio, reported via the
    ``infinite`` flag rather than clamped.
    """
    n, rounds = view.n, view.rounds
    if len(sanitizers) != n:
        raise ValueError("need sanitizers for every party")
    per_party = _per_round_sanitizers(sanitizers, rounds)
    a = p.density
    ratios = np.empty(n)
    infinite = False
    for i in range(n):
        prob1 = prob0 = 1.0
        for r in range(rounds):
            spec = per_party[i][r]
            if spec.output_prob is None:
                raise ValueError(f"sanitizer {spec.name!r} has no exact oracle")
            symbol = view.answers[r][i]
            symbol = symbol.item() if isinstance(symbol, np.generic) else symbol
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


def _ratio_mean_bound(p: SparseBernoulli) -> float:
    """Expectation bound on each per-party log ratio."""
    return 32.0 * (p.density * p.eps) ** 2


@dataclass(frozen=True)
class VSummary:
    """Summary of per-party log ratios over many sampled views."""

    mean_log_total: float
    max_abs: float
    hard_bound: float
    hard_violations: int
    mean_bound_failures: int

    @property
    def hard_bound_ok(self) -> bool:
        return self.hard_violations == 0

    @property
    def mean_bound_ok(self) -> bool:
        return self.mean_bound_failures == 0

    @property
    def passed(self) -> bool:
        return self.hard_bound_ok and self.mean_bound_ok


def v_statistics(stats: Iterable[RatioStats], p: SparseBernoulli) -> VSummary:
    """Check sampled log ratios against their range and expectation bounds.

    The range bound (4 * density * eps, per party, per view) must hold for
    every sample; the per-party empirical means must stay below
    32 * density^2 * eps^2 plus three standard errors.  Violations are
    reported, not raised.
    """
    logs = np.stack([s.log_ratios for s in stats])
    samples = logs.shape[0]
    hard = _ratio_hard_bound(p)
    abs_logs = np.abs(logs)
    violations = int(np.count_nonzero(abs_logs > hard))
    means = logs.mean(axis=0)
    mean_bound = _ratio_mean_bound(p)
    if samples > 1:
        se = logs.std(axis=0, ddof=1) / math.sqrt(samples)
    else:
        se = np.zeros_like(means)
    failures = int(np.count_nonzero(means > mean_bound + 3.0 * se))
    return VSummary(
        mean_log_total=float(logs.sum(axis=1).mean()),
        max_abs=float(abs_logs.max()),
        hard_bound=hard,
        hard_violations=violations,
        mean_bound_failures=failures,
    )


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
    hard_bound: float
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
    keep = flip.keep_prob
    # exact per-report log ratios, from the flip oracle
    r_one = (a * keep + (1.0 - a) * (1.0 - keep)) / (1.0 - keep)
    r_zero = (a * (1.0 - keep) + (1.0 - a) * keep) / keep
    v_one, v_zero = math.log(r_one), math.log(r_zero)

    s = rng.binomial(n, a, size=trials)
    k = rng.binomial(s, keep) + rng.binomial(n - s, 1.0 - keep)
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
        hard_bound=hard,
        hard_violations=viol,
        max_abs=max_abs,
    )


@dataclass(frozen=True)
class TailCheck:
    """Empirical tail rate against an analytic bound (plus sampling slack)."""

    empirical_rate: float
    bound: float
    stderr: float
    trials: int

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
    return TailCheck(empirical_rate=rate, bound=bound, stderr=stderr, trials=trials)


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
    if ell < 1:
        raise ValueError("ell must be at least 1")
    bound = ell * hoeffding_bound(nu, d)
    log_totals = np.asarray(log_totals, dtype=float)
    return _tail_check(log_totals > ell * nu / d, bound)


def empirical_log_ratios(
    planted_values: np.ndarray,
    zero_values: np.ndarray,
    bins: int = 64,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sampled-frequency fallback for real-valued messages.

    Histograms two message samples on a common grid and returns
    (bin_edges, log_ratios, joint_counts), where log_ratios[k] estimates
    the planted-vs-zero log probability ratio of bin k (NaN where either
    side is empty).  This is an estimate, not an oracle: it supports
    eyeballing real-valued protocols and must not feed the hard-bound
    assertions, which require exact output probabilities.
    """
    planted = np.asarray(planted_values, dtype=float)
    zero = np.asarray(zero_values, dtype=float)
    if planted.size == 0 or zero.size == 0:
        raise ValueError("both samples must be non-empty")
    lo = min(planted.min(), zero.min())
    hi = max(planted.max(), zero.max())
    edges = np.linspace(lo, hi + 1e-12, bins + 1)
    h_planted, _ = np.histogram(planted, bins=edges)
    h_zero, _ = np.histogram(zero, bins=edges)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.log(
            (h_planted / planted.size) / (h_zero / zero.size)
        )
    ratios[(h_planted == 0) | (h_zero == 0)] = math.nan
    return edges, ratios, h_planted + h_zero


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
    trials: int
    tau: float

    @property
    def max_error(self) -> float:
        return max(self.error_case_i, self.error_case_ii)


def distinguisher_experiment(
    gap_protocol: Callable[[np.ndarray, np.random.Generator], Any],
    p: SparseBernoulli,
    tau: Optional[float] = None,
    trials: int = 1000,
    rng: Optional[np.random.Generator] = None,
) -> DistinguisherReport:
    """Measure both failure modes of a 0/1 gap protocol.

    Runs the protocol on planted inputs and on the all-zero input; a
    protocol that tracks the true sum to within the planted sum's scale
    must exhibit at least one error rate bounded away from zero when tau
    is half the expected planted sum (the default).
    """
    if rng is None:
        raise ValueError("an explicitly seeded generator is required")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if tau is None:
        tau = p.expected_sum / 2.0
    zeros = np.zeros(p.n, dtype=np.uint8)
    err_i = err_ii = 0
    for _ in range(trials):
        x = sample_sparse(p, rng)
        out = gap_protocol(x, rng)
        out = out[0] if isinstance(out, tuple) else out
        if int(x.sum()) >= tau and int(out) == 0:
            err_i += 1
        out0 = gap_protocol(zeros, rng)
        out0 = out0[0] if isinstance(out0, tuple) else out0
        if int(out0) == 1:
            err_ii += 1
    return DistinguisherReport(
        error_case_i=err_i / trials,
        error_case_ii=err_ii / trials,
        trials=trials,
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
    is what makes auditing one party at a time sound.  Enumeration is
    exponential in n; intended for n <= 4.
    """
    n = len(sanitizers)
    individual = max(exact_epsilon(s) for s in sanitizers)
    collective = 0.0
    for bits in np.ndindex(*((2,) * n)):
        x = np.array(bits, dtype=np.uint8)
        dist_x = enumerate_noninteractive(sanitizers, x)
        for i in range(n):
            y = x.copy()
            y[i] ^= 1
            dist_y = enumerate_noninteractive(sanitizers, y)
            for c in set(dist_x) | set(dist_y):
                px, py = dist_x.get(c, 0.0), dist_y.get(c, 0.0)
                if px == 0.0:
                    continue
                if py == 0.0:
                    return EquivalenceReport(collective=math.inf, individual=individual)
                collective = max(collective, math.log(px / py))
    return EquivalenceReport(collective=collective, individual=individual)
