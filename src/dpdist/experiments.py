"""Named experiments reproducing the artifact's headline results at desk scale.

Each experiment resolves its parameters from an ``ExperimentConfig``, runs
deterministically from the master seed (trial k uses the generator derived
from (seed, k); batched experiments derive one generator per batch and say
so in their description), and yields (trial, metric, value) rows for the
CSV writer in ``cli``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from . import audit, distributed, fixtures, local_model
from .core import _window_sums, min_window_weight, min_window_weight_gridded
from .mechanisms import SensitivitySpec, flip_bias_for, laplace_mechanism
from .seeding import derive_rng

__all__ = ["ExperimentConfig", "ExperimentDef", "EXPERIMENTS", "run_rows"]

_BATCH = 1 << 16


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs requested for one run; None means the experiment's default.

    Each experiment takes only its own knobs; ``_resolve`` checks them.
    """

    experiment: str
    seed: int = 0
    trials: Optional[int] = None
    n: Optional[int] = None
    eps: Optional[float] = None
    delta: Optional[float] = None
    t: Optional[int] = None
    tau: Optional[float] = None
    d: Optional[float] = None
    nu: Optional[float] = None
    alpha_exp: Optional[float] = None
    out: Optional[str] = None


Row = Tuple[int, str, float]
Runner = Callable[[ExperimentConfig], Tuple[Dict[str, Any], List[Row]]]


@dataclass(frozen=True)
class ExperimentDef:
    name: str
    description: str
    reproduces: str
    runner: Runner


def _int_at_least(least: int):
    def check(v):
        return int(v) if isinstance(v, (int, np.integer)) and v >= least else None
    return check


def _float_between(lo: float, hi: float):
    def check(v):
        v = float(v)
        return v if lo < v < hi else None
    return check


# The one rule per knob: (what its value must be, check returning the value or None).
_KNOB_RULES = {
    "n": ("a positive integer", _int_at_least(1)),
    "trials": ("a positive integer", _int_at_least(1)),
    "t": ("a non-negative integer", _int_at_least(0)),
    "eps": ("a finite positive number", _float_between(0.0, math.inf)),
    "d": ("a finite positive number", _float_between(0.0, math.inf)),
    "nu": ("a finite positive number", _float_between(0.0, math.inf)),
    "tau": ("a finite positive number", _float_between(0.0, math.inf)),
    "delta": ("a value in (0, 1)", _float_between(0.0, 1.0)),
    "alpha_exp": ("a value in (0, 1)", _float_between(0.0, 1.0)),
}


def _resolve(cfg: ExperimentConfig, **defaults) -> Dict[str, Any]:
    """The experiment's knobs, defaulted and checked, plus ``seed``: its param_json.

    ``defaults`` names every knob the experiment takes; a default of None
    leaves an unset knob None.  A knob set in ``cfg`` but not named raises.
    """
    for knob in _KNOB_RULES:
        if knob not in defaults and getattr(cfg, knob) is not None:
            raise ValueError(f"{cfg.experiment} does not take {knob}")
    params: Dict[str, Any] = {}
    for knob, default in defaults.items():
        value = getattr(cfg, knob)
        value = default if value is None else value
        if value is not None:
            what, check = _KNOB_RULES[knob]
            checked = check(value)
            if checked is None:
                raise ValueError(f"{knob}: expected {what}, got {value!r}")
            value = checked
        params[knob] = value
    params["seed"] = cfg.seed
    return params


def _batches(seed: int, trials: int):
    """Yield (index b, size, derive_rng(seed, b)) per batch of at most ``_BATCH`` trials."""
    for b, start in enumerate(range(0, trials, _BATCH)):
        yield b, min(_BATCH, trials - start), derive_rng(seed, b)


def _half_ones(n: int) -> np.ndarray:
    x = np.zeros(n, dtype=np.uint8)
    x[: n // 2] = 1
    return x


def _chi2_rows(idx: int, table: np.ndarray) -> List[Row]:
    """Chi-squared homogeneity rows for a two-row count table; empty columns are dropped."""
    from scipy import stats as scipy_stats  # only here, so `import dpdist` loads numpy only
    chi2, pvalue, _, _ = scipy_stats.chi2_contingency(table[:, table.sum(axis=0) > 0])
    return [
        (idx, "chi2_stat", float(chi2)),
        (idx, "chi2_pvalue", float(pvalue)),
        (idx, "reject_at_0.001", float(pvalue < 0.001)),
    ]


# ---------------------------------------------------------------------------
# Accuracy of the sum protocols
# ---------------------------------------------------------------------------


def _rr_sum_error(cfg: ExperimentConfig):
    params = _resolve(cfg, n=10_000, eps=1.0, trials=10_000)
    x = _half_ones(params["n"])
    true = params["input_sum"] = int(x.sum())
    rows: List[Row] = []
    for k in range(params["trials"]):
        est, _ = local_model.randomized_response_sum(x, params["eps"], derive_rng(cfg.seed, k))
        rows.append((k, "error", est - true))
        rows.append((k, "abs_error", abs(est - true)))
    return params, rows


def _rr_exact_epsilon(cfg: ExperimentConfig):
    params = _resolve(cfg, eps=None)
    eps_values = [0.1, 0.5, 1.0]
    extra = params.pop("eps")
    if extra is not None and extra not in eps_values:
        eps_values.append(extra)
    params["eps_values"] = eps_values
    rows: List[Row] = []
    for k, eps in enumerate(eps_values):
        measured = audit.exact_epsilon(local_model.flip_sanitizer(flip_bias_for(eps)))
        expected = math.log1p(eps)
        rows.append((k, "eps", eps))
        rows.append((k, "exact_epsilon", measured))
        rows.append((k, "expected_log1p_eps", expected))
        rows.append((k, "rel_error", abs(measured - expected) / expected))
    return params, rows


def _laplace_tails(cfg: ExperimentConfig):
    params = _resolve(cfg, trials=1_000_000, eps=1.0)
    trials, eps = params["trials"], params["eps"]
    spec = SensitivitySpec(1.0)
    params.update(gs=1.0, batch=_BATCH)
    exceed = {1: 0, 2: 0, 3: 0}
    for _, m, rng in _batches(cfg.seed, trials):
        err = np.abs(laplace_mechanism(0.0, spec, eps, rng, size=m))
        for k in exceed:
            exceed[k] += int(np.count_nonzero(err > k / eps))
    rows: List[Row] = []
    for k in sorted(exceed):
        rate = exceed[k] / trials
        rows.append((k, "tail_rate", rate))
        rows.append((k, "expected", math.exp(-k)))
        rows.append((k, "abs_dev", abs(rate - math.exp(-k))))
    return params, rows


def _gaussian_aggregator(cfg: ExperimentConfig):
    params = _resolve(cfg, n=10_000, eps=1.0, trials=10_000)
    n, eps = params["n"], params["eps"]
    x = _half_ones(n)
    true = int(x.sum())
    params["noise_variance"] = 6.0 * math.log(n) ** 2 / eps**2
    rows: List[Row] = []
    for k in range(params["trials"]):
        est, _ = distributed.gaussian_aggregator_sum(
            x, eps, derive_rng(cfg.seed, k), record=False
        )
        rows.append((k, "error", est - true))
    return params, rows


# ---------------------------------------------------------------------------
# Likelihood-ratio audits (batched; one generator per batch)
# ---------------------------------------------------------------------------


def _planted(cfg: ExperimentConfig, trials: int, **knobs):
    """Resolve n, eps, d, trials and ``knobs``; return (params, planted distribution, flip)."""
    params = _resolve(cfg, n=10_000, eps=1.0, d=4.0, trials=trials, **knobs)
    dist = audit.SparseBernoulli(n=params["n"], eps=params["eps"], d=params["d"])
    return params, dist, flip_bias_for(dist.eps)


def _v_bounds(cfg: ExperimentConfig):
    params, dist, flip = _planted(cfg, 1_000_000)
    params.update(
        density=dist.density,
        hard_bound=audit._ratio_hard_bound(dist),
        sum_mean_bound=32.0 / dist.d,
        batch=_BATCH,
    )
    rows: List[Row] = []
    for b, m, rng in _batches(cfg.seed, params["trials"]):
        panel = audit.flip_panel(dist, flip, m, rng)
        rows.append((b, "views", panel.trials))
        rows.append((b, "hard_violations", panel.hard_violations))
        rows.append((b, "max_abs_v", panel.max_abs))
        rows.append((b, "sum_v_total", float(panel.log_totals.sum())))
        rows.append((b, "sum_v_sq_total", float((panel.log_totals**2).sum())))
    return params, rows


def _hoeffding_tail(cfg: ExperimentConfig):
    params, dist, flip = _planted(cfg, 1_000_000, nu=64.0)
    nu = params["nu"]
    params.update(
        bound=audit.hoeffding_bound(nu, dist.d), threshold_log_ratio=nu / dist.d, batch=_BATCH
    )
    rows: List[Row] = []
    for b, m, rng in _batches(cfg.seed, params["trials"]):
        panel = audit.flip_panel(dist, flip, m, rng)
        rows.append((b, "views", panel.trials))
        rows.append((b, "exceed_count", int(np.count_nonzero(panel.log_totals > nu / dist.d))))
    return params, rows


def _chernoff_tail(cfg: ExperimentConfig):
    params, dist, _ = _planted(cfg, 100_000)
    gamma = 0.5
    params.update(
        gamma=gamma,
        bound=audit.chernoff_lower_tail_bound(dist, gamma),
        threshold=(1.0 - gamma) * dist.expected_sum,
        batch=_BATCH,
    )
    rows: List[Row] = []
    for b, m, rng in _batches(cfg.seed, params["trials"]):
        sums = audit.sample_sparse_sums(dist, m, rng)
        rows.append((b, "draws", m))
        rows.append(
            (b, "low_count", int(np.count_nonzero(sums <= (1.0 - gamma) * dist.expected_sum)))
        )
    return params, rows


def _phase_transition(cfg: ExperimentConfig):
    params, dist, flip = _planted(cfg, 10_000, tau=None)
    n, eps, trials = dist.n, dist.eps, params["trials"]
    tau = params.pop("tau")
    if tau is not None:
        taus = [tau]
    else:
        taus = [m * math.sqrt(n) / eps for m in (0.1, 0.3, 1.0, 3.0, 10.0)]
    params.update(density=dist.density, taus=taus)
    # One batch of planted and all-zero runs, reused across the tau sweep.
    # The report count is Bin(s, keep) + Bin(n-s, 1-keep) given the input
    # sum s, which matches the bit-by-bit protocol exactly in distribution.
    rng = derive_rng(cfg.seed, 0)
    s = rng.binomial(n, dist.density, size=trials)
    k_planted = rng.binomial(s, flip.keep_prob) + rng.binomial(n - s, 1.0 - flip.keep_prob)
    est_planted = local_model.rr_debias(k_planted.astype(float), n, flip)
    est_zero = local_model.rr_estimate_batch(np.zeros(n, dtype=np.uint8), eps, trials, rng)
    rows: List[Row] = []
    for idx, tau in enumerate(taus):
        thr = tau / 2.0
        err_i = float(np.mean((s >= tau) & (est_planted <= thr)))
        err_ii = float(np.mean(est_zero > thr))
        rows.append((idx, "tau", tau))
        rows.append((idx, "error_case_i", err_i))
        rows.append((idx, "error_case_ii", err_ii))
        rows.append((idx, "max_error", max(err_i, err_ii)))
        rows.append((idx, "qualifying_rate", float(np.mean(s >= tau))))
    return params, rows


# ---------------------------------------------------------------------------
# Structural checks: compiler, topology counting, factorization
# ---------------------------------------------------------------------------


def _compiler_fixtures():
    return [
        fixtures.RelayProtocol(keep_prob=0.8),
        fixtures.NoisyParityProtocol(flip_bias_for(1.0)),
        fixtures.SharedModularSumProtocol(modulus=3),
    ]


def _messages_preserved(protocol, topology) -> bool:
    """Check record-by-record conservation on one deterministic run."""
    spaces = [protocol.tape_space(i) for i in range(protocol.n)]
    tapes = [space[0][0] for space in spaces]
    e = distributed.run_protocol_with_tapes(protocol, topology, [1] * protocol.n, tapes)
    compiled = distributed.compile_to_local(protocol, topology)
    _, view = local_model.run_interactive_with_tapes(
        compiled.parties, compiled.curator, [1] * protocol.n, compiled.rounds, tapes
    )
    original = sorted(e.transcript)
    up = []  # party -> curator copies, from the answers
    for rnd, roundmsgs in enumerate(view.answers[:-1], start=1):
        for sender, answer in enumerate(roundmsgs):
            for receiver, symbol in answer:
                up.append(distributed.Message(rnd, sender, receiver, symbol))
    down = []  # curator -> party copies, from the queries, shifted one round
    for rnd, roundq in enumerate(view.queries):
        for receiver, query in enumerate(roundq):
            for sender, symbol in query:
                down.append(distributed.Message(rnd, sender, receiver, symbol))
    tag, _ = view.answers[-1][protocol.output_party]
    return sorted(up) == original and sorted(down) == original and tag == "output"


def _compile_to_local(cfg: ExperimentConfig):
    params = _resolve(cfg)
    rows: List[Row] = []
    for idx, protocol in enumerate(_compiler_fixtures()):
        topology = fixtures.fixture_topology(protocol)
        compiled = distributed.compile_to_local(protocol, topology)
        worst = 0.0
        for bits in np.ndindex(*((2,) * protocol.n)):
            dist_orig = distributed.output_distribution(
                protocol, topology, np.array(bits, dtype=np.uint8)
            )
            dist_comp = compiled.output_distribution(np.array(bits, dtype=np.uint8))
            for key in set(dist_orig) | set(dist_comp):
                worst = max(worst, abs(dist_orig.get(key, 0.0) - dist_comp.get(key, 0.0)))
        rows.append((idx, "max_output_dist_diff", worst))
        rows.append((idx, "rounds_in", protocol.rounds))
        rows.append((idx, "rounds_out", compiled.rounds))
        rows.append((idx, "messages_preserved", float(_messages_preserved(protocol, topology))))
    return params, rows


def _lonely_parties(cfg: ExperimentConfig):
    params = _resolve(cfg, n=64, trials=100, t=None)
    n, trials, t = params["n"], params["trials"], params.pop("t")
    t_values = params["t_values"] = [t] if t is not None else [1, 3, 7]
    rows: List[Row] = []
    idx = 0
    for t in t_values:
        cap = n * (t + 1) // 4
        for k in range(trials):
            rng = derive_rng(cfg.seed, t, k)
            n_channels = int(rng.integers(0, cap + 1))
            topo = distributed.random_topology(n, n_channels, rng)
            lonely = len(distributed.classify(topo, t).lonely)
            rows.append((idx, "t", t))
            rows.append((idx, "channels", n_channels))
            rows.append((idx, "lonely", lonely))
            rows.append((idx, "meets_half", float(lonely >= n // 2)))
            idx += 1
    return params, rows


def _factorization_fixtures():
    return [
        fixtures.RelayProtocol(keep_prob=0.8),
        fixtures.NoisyParityProtocol(flip_bias_for(1.0)),
        fixtures.ChainProtocol(flip_bias_for(0.5)),
    ]


def _transcript_factorization(cfg: ExperimentConfig):
    params = _resolve(cfg)
    rows: List[Row] = []
    for idx, protocol in enumerate(_factorization_fixtures()):
        topology = fixtures.fixture_topology(protocol)
        worst = 0.0
        checked = 0
        for bits in np.ndindex(*((2,) * protocol.n)):
            x = np.array(bits, dtype=np.uint8)
            for key, prob in distributed.enumerate_executions(protocol, topology, x).items():
                product = 1.0
                for i in range(protocol.n):
                    product *= distributed.consistent_probability(protocol, i, int(x[i]), key)
                worst = max(worst, abs(product - prob))
                checked += 1
        rows.append((idx, "max_abs_diff", worst))
        rows.append((idx, "transcripts_checked", checked))
    return params, rows


def _message_accounting(cfg: ExperimentConfig):
    params = _resolve(cfg)
    seed = cfg.seed
    rows: List[Row] = []

    n_rr = 100
    e = distributed.randomized_response_distributed(
        _half_ones(n_rr), 1.0, derive_rng(seed, 0), record=True
    )
    rows.append((0, "rr_messages", e.n_messages))
    rows.append((0, "rr_expected", 2 * (n_rr - 1)))
    rows.append((0, "rr_rounds", e.rounds))

    n_wm, t, alpha_exp = 256, 7, 0.75
    _, e = distributed.windowed_min_protocol(
        _half_ones(n_wm), 1.0, 0.01, t, alpha_exp, derive_rng(seed, 1), record=True
    )
    _, interval = distributed.windowed_min_sizes(n_wm, alpha_exp)
    expected = (t + 1) * (n_wm - 1) + t * (n_wm // interval) + (n_wm - 1)
    rows.append((1, "windowed_min_messages", e.n_messages))
    rows.append((1, "windowed_min_expected", expected))
    rows.append((1, "windowed_min_rounds", e.rounds))

    n_g = 64
    _, e = distributed.gaussian_aggregator_sum(_half_ones(n_g), 1.0, derive_rng(seed, 2))
    rows.append((2, "gaussian_messages", e.n_messages))
    rows.append((2, "gaussian_expected", 2 * (n_g - 1)))
    rows.append((2, "gaussian_rounds", e.rounds))
    return params, rows


def _rr_distributed(cfg: ExperimentConfig):
    params = _resolve(cfg, n=16, eps=1.0, trials=20_000)
    n, eps, trials = params["n"], params["eps"], params["trials"]
    x = _half_ones(n)
    rng_d = derive_rng(cfg.seed, 0)
    rng_l = derive_rng(cfg.seed, 1)
    dist_counts: Dict[float, int] = {}
    local_counts: Dict[float, int] = {}
    for _ in range(trials):
        e = distributed.randomized_response_distributed(x, eps, rng_d, record=False)
        dist_counts[e.output] = dist_counts.get(e.output, 0) + 1
        est, _ = local_model.randomized_response_sum(x, eps, rng_l)
        local_counts[est] = local_counts.get(est, 0) + 1
    support = sorted(set(dist_counts) | set(local_counts))
    table = [[counts.get(v, 0) for v in support] for counts in (dist_counts, local_counts)]
    rows = _chi2_rows(0, np.array(table))
    e = distributed.randomized_response_distributed(x, eps, derive_rng(cfg.seed, 2))
    rows.append((0, "messages", e.n_messages))
    rows.append((0, "expected_messages", 2 * (n - 1)))
    e1 = distributed.randomized_response_distributed([1], eps, derive_rng(cfg.seed, 3))
    rows.append((0, "n1_messages", e1.n_messages))
    return params, rows


# ---------------------------------------------------------------------------
# Windowed minimum
# ---------------------------------------------------------------------------


def _dist_alpha(cfg: ExperimentConfig):
    params = _resolve(cfg, n=4096, eps=1.0, delta=0.01, alpha_exp=0.75, t=7, trials=1000)
    n, eps, delta, t = params["n"], params["eps"], params["delta"], params["t"]
    alpha_exp, trials = params["alpha_exp"], params["trials"]
    noise_trials = max(trials // 5, 50)
    window, interval = distributed.windowed_min_sizes(n, alpha_exp)
    r_base = distributed.noise_base_variance(eps, delta)
    error_bound = interval * (1.0 + 6.0 * math.sqrt(2.0 * r_base) / interval)
    params.update(
        window=window, interval=interval, noise_trials=noise_trials, error_bound=error_bound
    )
    rows: List[Row] = []

    matches = 0
    for k in range(trials):
        rng = derive_rng(cfg.seed, 0, k)
        x = (rng.random(n) < 0.5).astype(np.uint8)
        est, _ = distributed.windowed_min_protocol(
            x, eps, delta, t, alpha_exp, rng, zero_noise=True, record=False
        )
        if est == min_window_weight_gridded(x, window, interval):
            matches += 1
    rows.append((0, "zero_noise_matches", matches))
    rows.append((0, "zero_noise_trials", trials))

    # exhaustive grid-vs-full comparison on every 16-bit input
    gn, gw, gi = 16, 4, 2
    codes = np.arange(1 << gn, dtype=np.uint32)
    wsums = _window_sums((codes[:, None] >> np.arange(gn)[None, :]) & 1, gw)
    full = wsums.min(axis=1)
    grid = wsums[:, ::gi].min(axis=1)
    violations = int(np.count_nonzero((grid < full) | (grid > full + (gi - 1))))
    rows.append((1, "grid_bound_violations", violations))
    rows.append((1, "grid_inputs_checked", 1 << gn))

    within = 0
    for k in range(noise_trials):
        rng = derive_rng(cfg.seed, 1, k)
        x = (rng.random(n) < 0.5).astype(np.uint8)
        est, _ = distributed.windowed_min_protocol(
            x, eps, delta, t, alpha_exp, rng, record=False
        )
        if abs(est - min_window_weight(x, window)) <= error_bound:
            within += 1
    rows.append((2, "noise_within_bound", within))
    rows.append((2, "noise_trials", noise_trials))
    rows.append((2, "within_rate", within / noise_trials))
    return params, rows


# ---------------------------------------------------------------------------
# Symmetry and privacy-definition checks
# ---------------------------------------------------------------------------


def _symmetry(cfg: ExperimentConfig):
    params = _resolve(cfg, eps=1.0, n=100, trials=100_000)
    eps, n_big, trials = params["eps"], params["n"], params["trials"]
    flip = flip_bias_for(eps)
    rows: List[Row] = []

    # exact part: count distribution identical under every permutation (n=4)
    base = (1, 1, 0, 0)
    ref = local_model.rr_count_distribution(np.array(base, dtype=np.uint8), flip)
    worst = 0.0
    for perm in itertools.permutations(range(4)):
        permuted = np.array([base[j] for j in perm], dtype=np.uint8)
        dist = local_model.rr_count_distribution(permuted, flip)
        for kk in ref:
            worst = max(worst, abs(ref[kk] - dist[kk]))
    rows.append((0, "max_perm_distance_n4", worst))

    # sampled part: chi-squared homogeneity of estimates on x vs pi(x)
    rng = derive_rng(cfg.seed, 0)
    x = _half_ones(n_big)
    pi_x = x[rng.permutation(n_big)]
    est_x = np.empty(trials)
    est_p = np.empty(trials)
    for k in range(trials):
        est_x[k], _ = local_model.randomized_response_sum(x, eps, rng)
        est_p[k], _ = local_model.randomized_response_sum(pi_x, eps, rng)
    lo = min(est_x.min(), est_p.min())
    hi = max(est_x.max(), est_p.max())
    edges = np.linspace(lo, hi + 1e-9, 21)
    hx, _ = np.histogram(est_x, bins=edges)
    hp, _ = np.histogram(est_p, bins=edges)
    rows.extend(_chi2_rows(1, np.array([hx, hp])))
    return params, rows


def _definition_equivalence(cfg: ExperimentConfig):
    params = _resolve(cfg)
    cases = [
        ("single_flip", [local_model.flip_sanitizer(flip_bias_for(1.0))]),
        ("two_flips", [local_model.flip_sanitizer(flip_bias_for(1.0))] * 2),
        (
            "mixed_eps",
            [
                local_model.flip_sanitizer(flip_bias_for(0.3)),
                local_model.flip_sanitizer(flip_bias_for(1.0)),
                local_model.constant_sanitizer(0),
            ],
        ),
        (
            "four_parties",
            [
                local_model.flip_sanitizer(flip_bias_for(0.5)),
                local_model.flip_sanitizer(flip_bias_for(1.0)),
                local_model.flip_sanitizer(flip_bias_for(0.1)),
                local_model.constant_sanitizer(1),
            ],
        ),
    ]
    rows: List[Row] = []
    for idx, (name, sanitizers) in enumerate(cases):
        report = audit.definition_equivalence_check(sanitizers)
        rows.append((idx, "collective", report.collective))
        rows.append((idx, "individual", report.individual))
        rows.append((idx, "passed", float(report.passed)))
    params["cases"] = [name for name, _ in cases]
    return params, rows


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

EXPERIMENTS: Dict[str, ExperimentDef] = {
    e.name: e
    for e in [
        ExperimentDef(
            "rr-sum-error",
            "per-trial signed and absolute error of the randomized-response sum",
            "local-model sum accuracy at the sqrt(n)/eps scale",
            _rr_sum_error,
        ),
        ExperimentDef(
            "rr-exact-epsilon",
            "exact privacy loss of the bit flip vs the closed form ln(1+eps)",
            "tight privacy of randomized response",
            _rr_exact_epsilon,
        ),
        ExperimentDef(
            "laplace-tails",
            "empirical tail rates of the sensitivity-calibrated Laplace mechanism",
            "e^-k tails of Laplace noise at scale 1/eps",
            _laplace_tails,
        ),
        ExperimentDef(
            "v-bounds",
            "hard range and mean bounds on per-party view log ratios (batched)",
            "per-party likelihood-ratio bounds under planted sparse inputs",
            _v_bounds,
        ),
        ExperimentDef(
            "hoeffding-tail",
            "tail rate of the total view ratio vs its concentration bound (batched)",
            "Hoeffding tail of the planted-vs-zero view ratio",
            _hoeffding_tail,
        ),
        ExperimentDef(
            "chernoff-tail",
            "lower tail of the planted input sum vs its Chernoff bound (batched)",
            "concentration of the planted input weight",
            _chernoff_tail,
        ),
        ExperimentDef(
            "phase-transition",
            "distinguisher error of the randomized-response gap protocol across tau",
            "sqrt(n)/eps error phase transition for gap threshold",
            _phase_transition,
        ),
        ExperimentDef(
            "compile-to-local",
            "output-distribution equality and round count of the curator compiler",
            "rerouting a point-to-point protocol through a curator, one extra round",
            _compile_to_local,
        ),
        ExperimentDef(
            "lonely-parties",
            "lonely-party counts on random topologies under the message cap",
            "at most n(t+1)/4 channels forces at least n/2 lonely parties",
            _lonely_parties,
        ),
        ExperimentDef(
            "transcript-factorization",
            "per-party product form of transcript probabilities vs enumeration",
            "independence factorization of transcript probabilities",
            _transcript_factorization,
        ),
        ExperimentDef(
            "dist-alpha",
            "secret-shared windowed-minimum: zero-noise exactness, grid bound, noisy error",
            "3-round windowed-minimum protocol accuracy",
            _dist_alpha,
        ),
        ExperimentDef(
            "gaussian-aggregator",
            "per-trial error of Gaussian submissions to an ideal aggregator",
            "computational-model sum protocol with log(n)/eps error",
            _gaussian_aggregator,
        ),
        ExperimentDef(
            "symmetry",
            "permutation invariance of the randomized-response output distribution",
            "symmetric output distributions of the sum protocols",
            _symmetry,
        ),
        ExperimentDef(
            "definition-equivalence",
            "collective vs per-party privacy maxima on exhaustive fixtures",
            "equivalence of the two local-model privacy definitions",
            _definition_equivalence,
        ),
        ExperimentDef(
            "message-accounting",
            "message and round counts of the built-in protocols vs closed forms",
            "message-complexity accounting of the distributed protocols",
            _message_accounting,
        ),
        ExperimentDef(
            "rr-distributed",
            "distributed randomized response vs its local-model twin (chi-squared)",
            "star-topology randomized response with 2(n-1) messages",
            _rr_distributed,
        ),
    ]
}


def run_rows(cfg: ExperimentConfig) -> Tuple[Dict[str, Any], List[Row]]:
    """Resolve and run an experiment, returning (params, rows)."""
    if cfg.experiment not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {cfg.experiment!r}; known: {known}")
    return EXPERIMENTS[cfg.experiment].runner(cfg)
