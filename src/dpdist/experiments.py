"""Named experiments reproducing the artifact's headline results at desk scale.

Each experiment resolves its parameters from an ``ExperimentConfig``, runs
deterministically from the master seed, and yields (trial, metric, value)
rows for the CSV writer in ``cli``.  Every generator is derived from the
seed and a fixed path.  Per-trial experiments give trial k its own, (seed,
k) or (seed, stage, k); batched experiments derive one per batch and say so
in their description; ``symmetry``, ``phase-transition`` and
``rr-distributed``'s local twin draw all their runs from one generator, in
chunks taken in the order of one whole draw.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import os
import sys
import types
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

import numpy as np

from . import mechanisms
from .core import min_window_weight, min_window_weight_gridded
from .mechanisms import SensitivitySpec, flip_bias_for, laplace_mechanism
from .seeding import derive_rng

__all__ = ["ExperimentConfig", "ExperimentDef", "EXPERIMENTS", "experiment_def", "run_rows"]


def _lazy(name: str) -> types.ModuleType:
    """``dpdist.<name>``, registered now and executed when one of its attributes is first read.

    The module goes into ``sys.modules`` and onto the package, so every
    import form finds it; one already imported is returned as it is.  The
    first read executes the module without a lock: it must happen on one
    thread (see ``_batched``).  Building the registry reads none of these
    modules, so ``import dpdist.cli`` and ``dpdist list`` execute none.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return module


audit, distributed, fixtures, local_model = map(_lazy, ["audit", "distributed", "fixtures", "local_model"])

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
        return int(v) if isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= least else None
    return check


def _float_between(lo: float, hi: float):
    def check(v):
        real = isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
        huge = isinstance(v, int) and abs(v) > sys.float_info.max  # float() would overflow
        v = float(v) if real and not huge else math.nan
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
    leaves an unset knob None.  A knob set in ``cfg`` but not named raises,
    and so does a seed that is not a non-negative integer.
    """
    if _int_at_least(0)(cfg.seed) is None:
        raise ValueError(f"seed: expected a non-negative integer, got {cfg.seed!r}")
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


_T = TypeVar("_T")


def _chunks(total: int, size: int) -> List[Tuple[int, int]]:
    """(start, size) of each chunk of at most ``size`` of ``range(total)``, in order."""
    return [(start, min(size, total - start)) for start in range(0, total, size)]


def _batched(
    seed: int, trials: int, fn: Callable[[int, int, np.random.Generator], _T]
) -> List[_T]:
    """``fn(b, size, derive_rng(seed, b))`` per batch b of at most ``_BATCH`` trials, in batch order.

    The generators are derived here, in batch order.  The batches run on a
    thread pool with one worker per CPU this process may use, at most one per
    batch; numpy's samplers release the GIL.  Each batch draws from its own
    generator, so the results do not depend on the worker count.  ``fn``
    should return a batch's rows or counts, not its arrays, so that at most
    one batch per worker holds arrays.  ``fn`` must read only modules that
    have already executed: the first read of a ``_lazy`` module executes it
    unlocked, and on a pool thread another worker could read it half
    executed.  The audit runners read ``audit`` in ``_planted``, on the
    calling thread, and laplace-tails' batches use only ``mechanisms``.
    """
    sizes = [size for _, size in _chunks(trials, _BATCH)]
    rngs = [derive_rng(seed, b) for b in range(len(sizes))]
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        cpus = os.cpu_count() or 1
    workers = min(len(sizes), cpus)
    if workers <= 1:
        return list(map(fn, range(len(sizes)), sizes, rngs))
    # imported here: at module level it would add about 11 ms to `import dpdist.cli`
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(len(sizes)), sizes, rngs))


def _rows(parts: List[List[Row]]) -> List[Row]:
    """The per-batch row lists of ``_batched``, joined in batch order."""
    return list(itertools.chain.from_iterable(parts))


def _half_ones(n: int) -> np.ndarray:
    x = np.zeros(n, dtype=np.uint8)
    x[: n // 2] = 1
    x.setflags(write=False)  # so that as_bits takes it as it is
    return x


def _rr_runs(rows: np.ndarray, eps: float, runs: int, rng: np.random.Generator) -> np.ndarray:
    """Estimates of ``runs`` randomized-response runs on each of the k rows, shape (runs, k).

    The draws are those of ``runs`` rounds of ``randomized_response_sum``
    calls, one per row in row order, on ``rng``: one ``flip`` of an (m, k, n)
    chunk fills its uniforms in the same order as m*k calls of n each.  A
    chunk holds at most ``_BATCH`` uniforms, or one run when a run is larger.
    """
    p = flip_bias_for(eps)
    k, n = rows.shape
    m = max(1, _BATCH // (k * n))
    counts = np.empty((runs, k))
    for start, size in _chunks(runs, m):
        z = mechanisms.flip(np.broadcast_to(rows, (size, k, n)), p, rng)
        counts[start : start + size] = z.sum(axis=2)
    return local_model.rr_debias(counts, n, p)


# Cephes' regularized upper incomplete gamma function igamc(a, x), which
# scipy's chdtrc(dof, chi2) = igamc(dof/2, chi2/2) calls, ported line for
# line for the branches it takes when a <= 20 and x > 1.1: the series of
# DLMF 8.11.4 (as 1 - igam) when x < a and the continued fraction of DLMF
# 8.9.2 otherwise, each scaled by igam_fac.  Its other branches (Temme's
# asymptotic series past a = 20, igamc_series at x <= 1.1, igam_fac's
# log1pmx form at a or x >= 200) are left to scipy.  Importing
# scipy.special costs about 0.3 s and 22 MB of resident memory.  igam_fac
# underflows only at x > a (a ln x - x - lgam(a) > -39 at 1.1 < x < a <= 20).
# The exact 2^-52 rescale is live: dof 1, chi2 = 2.2447370769435904 overflows without it.
_MACHEP = 2.0**-53
_MAXLOG = 7.09782712893383996843e2
_IGAM_MAXITER = 2000
_IGAM_BIG = 2.0**52
_IGAM_BIGINV = 2.0**-52
_LANCZOS_G = 6.024680040776729583740234375
# lanczos_sum_expg_scaled's rational function, highest power first
_LANCZOS_NUM = (
    0.006061842346248906525783753964555936883222, 0.5098416655656676188125178644804694509993,
    19.51992788247617482847860966235652136208, 449.9445569063168119446858607650988409623,
    6955.999602515376140356310115515198987526, 75999.29304014542649875303443598909137092,
    601859.6171681098786670226533699352302507, 3481712.15498064590882071018964774556468,
    14605578.08768506808414169982791359218571, 43338889.32467613834773723740590533316085,
    86363131.28813859145546927288977868422342, 103794043.1163445451906271053616070238554,
    56906521.91347156388090791033559122686859,
)
_LANCZOS_DENOM = (
    1.0, 66.0, 1925.0, 32670.0, 357423.0, 2637558.0, 13339535.0,
    45995730.0, 105258076.0, 150917976.0, 120543840.0, 39916800.0, 0.0,
)
# lgam's Stirling correction (x >= 13) and its rational log Γ on [2, 3)
_LGAM_A = (
    8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
    -2.77777777730099687205e-3, 8.33333333333331927722e-2,
)
_LGAM_B = (
    -1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
    -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5,
)
_LGAM_C = (  # p1evl's implicit leading 1 written out
    1.0, -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
    -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6,
)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))


def _horner(x: float, coefs: Tuple[float, ...]) -> float:
    """The polynomial with ``coefs``, highest power first, at x: cephes' polevl and p1evl."""
    y = coefs[0]
    for c in coefs[1:]:
        y = y * x + c
    return y


def _lgam(x: float) -> float:
    """Cephes' log Γ(x) for 0 < x < 1000."""
    if x < 13.0:
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        return math.log(z) + x * _horner(x, _LGAM_B) / _horner(x, _LGAM_C)
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    return q + _horner(1.0 / (x * x), _LGAM_A) / x


def _igam_fac(a: float, x: float) -> float:
    """Cephes' x**a e**-x / Γ(a) for a, x < 200."""
    if abs(a - x) > 0.4 * a:
        ax = a * math.log(x) - x - _lgam(a)
        return 0.0 if ax < -_MAXLOG else math.exp(ax)
    fac = a + _LANCZOS_G - 0.5
    if a > 1:  # ratevl evaluates the rational function in 1/a
        lanczos = _horner(1 / a, _LANCZOS_NUM[::-1]) / _horner(1 / a, _LANCZOS_DENOM[::-1])
    else:
        lanczos = _horner(a, _LANCZOS_NUM) / _horner(a, _LANCZOS_DENOM)
    return math.sqrt(fac / math.exp(1)) / lanczos * (math.exp(a - x) * (x / fac) ** a)


def _chdtrc(dof: int, chi2: float) -> float:
    """Cephes' chdtrc(dof, chi2), bit for bit, for dof <= 40 and chi2 > 2.2."""
    a, x = dof / 2.0, chi2 / 2.0
    ax = _igam_fac(a, x)
    if ax == 0.0:
        return 0.0
    if x < a:  # 1 - igam_series
        r, c, ans = a, 1.0, 1.0
        for _ in range(_IGAM_MAXITER):
            r += 1.0
            c *= x / r
            ans += c
            if c <= _MACHEP * ans:
                break
        return 1.0 - ans * ax / a
    # igamc_continued_fraction
    y = 1.0 - a
    z = x + y + 1.0
    c = 0.0
    pkm2, qkm2 = 1.0, x
    pkm1, qkm1 = x + 1.0, z * x
    ans = pkm1 / qkm1
    for _ in range(_IGAM_MAXITER):
        c += 1.0
        y += 1.0
        z += 2.0
        yc = y * c
        pk = pkm1 * z - pkm2 * yc
        qk = qkm1 * z - qkm2 * yc
        if qk != 0:
            r = pk / qk
            t = abs((ans - r) / r)
            ans = r
        else:
            t = 1.0
        pkm2, pkm1, qkm2, qkm1 = pkm1, pk, qkm1, qk
        if abs(pk) > _IGAM_BIG:
            pkm2, pkm1, qkm2, qkm1 = pkm2 * _IGAM_BIGINV, pkm1 * _IGAM_BIGINV, qkm2 * _IGAM_BIGINV, qkm1 * _IGAM_BIGINV
        if t <= _MACHEP:
            break
    return ans * ax


def _chi2_rows(idx: int, table: np.ndarray) -> List[Row]:
    """Chi-squared homogeneity rows for a two-row count table; all-zero columns are dropped.

    The statistic and p-value are bit for bit those of
    ``scipy.stats.chi2_contingency``, the reference the tests compare with:
    the same float64 operations in the same order, Yates' correction at one
    degree of freedom, then the survival function ``chdtrc`` that scipy
    calls.  At dof <= 40 and chi2 > 2.2, where cephes runs only the series
    and continued fraction that ``_chdtrc`` ports, the p-value is computed
    here; elsewhere ``scipy.special.chdtrc`` is loaded, and only then, so
    `import dpdist` loads numpy only and every benchmark table runs without
    scipy.
    """
    observed = table[:, table.any(axis=0)]
    if np.any(observed < 0):
        raise ValueError("chi-squared counts must be non-negative")
    observed = observed.astype(np.float64)
    expected = observed.sum(axis=1, keepdims=True) * observed.sum(axis=0, keepdims=True) / observed.sum()
    if np.any(expected == 0):
        raise ValueError("a chi-squared table has a zero expected frequency")
    dof = expected.size - sum(expected.shape) + expected.ndim - 1
    if dof == 0:
        chi2, pvalue = 0.0, 1.0
    else:
        if dof == 1:
            diff = expected - observed
            observed = observed + np.minimum(0.5, np.abs(diff)) * np.sign(diff)
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        if dof <= 40 and chi2 > 2.2:
            pvalue = _chdtrc(dof, chi2)
        else:
            from scipy.special import chdtrc

            pvalue = chdtrc(dof, chi2)
    return [
        (idx, "chi2_stat", chi2),
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

    def batch(b: int, m: int, rng: np.random.Generator) -> List[int]:
        err = np.abs(laplace_mechanism(0.0, spec, eps, rng, size=m))
        return [int(np.count_nonzero(err > k / eps)) for k in (1, 2, 3)]

    exceed = [sum(counts) for counts in zip(*_batched(cfg.seed, trials, batch))]
    rows: List[Row] = []
    for k, count in enumerate(exceed, start=1):
        rate = count / trials
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

    def batch(b: int, m: int, rng: np.random.Generator) -> List[Row]:
        panel = audit.flip_panel(dist, flip, m, rng)
        return [
            (b, "views", panel.trials),
            (b, "hard_violations", panel.hard_violations),
            (b, "max_abs_v", panel.max_abs),
            (b, "sum_v_total", float(panel.log_totals.sum())),
            (b, "sum_v_sq_total", float((panel.log_totals**2).sum())),
        ]

    return params, _rows(_batched(cfg.seed, params["trials"], batch))


def _hoeffding_tail(cfg: ExperimentConfig):
    params, dist, flip = _planted(cfg, 1_000_000, nu=64.0)
    nu = params["nu"]
    params.update(
        bound=audit.hoeffding_bound(nu, dist.d), threshold_log_ratio=nu / dist.d, batch=_BATCH
    )

    def batch(b: int, m: int, rng: np.random.Generator) -> List[Row]:
        panel = audit.flip_panel(dist, flip, m, rng)
        exceed = int(np.count_nonzero(panel.log_totals > nu / dist.d))
        return [(b, "views", panel.trials), (b, "exceed_count", exceed)]

    return params, _rows(_batched(cfg.seed, params["trials"], batch))


def _chernoff_tail(cfg: ExperimentConfig):
    params, dist, _ = _planted(cfg, 100_000)
    gamma = 0.5
    params.update(
        gamma=gamma,
        bound=audit.chernoff_lower_tail_bound(dist, gamma),
        threshold=(1.0 - gamma) * dist.expected_sum,
        batch=_BATCH,
    )

    def batch(b: int, m: int, rng: np.random.Generator) -> List[Row]:
        sums = audit.sample_sparse_sums(dist, m, rng)
        low = int(np.count_nonzero(sums <= (1.0 - gamma) * dist.expected_sum))
        return [(b, "draws", m), (b, "low_count", low)]

    return params, _rows(_batched(cfg.seed, params["trials"], batch))


def _phase_transition(cfg: ExperimentConfig):
    """Error rates of the gap protocol at each tau, from one pass of planted and all-zero runs.

    All draws come from the one generator derived from (seed, 0), in the
    order of whole-array draws: the planted sums, their report counts
    (``rr_report_count_chunks``), then the all-zero runs' estimates.  They
    are taken in ``_BATCH``-trial chunks, and each chunk is reduced at once
    to per-tau counts; only each trial's sum and kept-report count are held
    for the whole pass, in the smallest unsigned dtype that holds n.  Each
    rate is its count over ``trials``, as the mean of a boolean array is.
    """
    params, dist, flip = _planted(cfg, 10_000, tau=None)
    n, eps, trials = dist.n, dist.eps, params["trials"]
    tau = params.pop("tau")
    if tau is not None:
        taus = [tau]
    else:
        taus = [m * math.sqrt(n) / eps for m in (0.1, 0.3, 1.0, 3.0, 10.0)]
    params.update(density=dist.density, taus=taus)
    chunks = _chunks(trials, _BATCH)
    rng = derive_rng(cfg.seed, 0)
    s = np.empty(trials, dtype=np.min_scalar_type(n))
    sums = [s[start : start + size] for start, size in chunks]
    for part in sums:
        part[:] = audit.sample_sparse_sums(dist, part.size, rng)
    qualifying, err_i, err_ii = ([0] * len(taus) for _ in range(3))
    for part, counts in zip(sums, local_model.rr_report_count_chunks(n, sums, flip, rng)):
        est = local_model.rr_debias(counts, n, flip)
        for idx, tau in enumerate(taus):
            planted = part >= tau
            qualifying[idx] += int(np.count_nonzero(planted))
            err_i[idx] += int(np.count_nonzero(planted & (est <= tau / 2.0)))
    zeros = np.zeros(n, dtype=np.uint8)
    for _, size in chunks:
        est = local_model.rr_estimate_batch(zeros, eps, size, rng)
        for idx, tau in enumerate(taus):
            err_ii[idx] += int(np.count_nonzero(est > tau / 2.0))
    rows: List[Row] = []
    for idx, tau in enumerate(taus):
        rate_i, rate_ii = err_i[idx] / trials, err_ii[idx] / trials
        rows.append((idx, "tau", tau))
        rows.append((idx, "error_case_i", rate_i))
        rows.append((idx, "error_case_ii", rate_ii))
        rows.append((idx, "max_error", max(rate_i, rate_ii)))
        rows.append((idx, "qualifying_rate", qualifying[idx] / trials))
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
    if t is not None and t >= n:  # checked before any topology is drawn
        raise ValueError(f"t: expected a non-negative integer below n={n}, got {t!r}")
    t_values = params["t_values"] = [t] if t is not None else [v for v in (1, 3, 7) if v < n]
    if not t_values:
        raise ValueError(f"t: none of the default values 1, 3 and 7 lies below n={n}; set t to 0")
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
    dist_counts: Dict[float, int] = {}
    for _ in range(trials):
        e = distributed.randomized_response_distributed(x, eps, rng_d, record=False)
        dist_counts[e.output] = dist_counts.get(e.output, 0) + 1
    est = _rr_runs(x[None], eps, trials, derive_rng(cfg.seed, 1))
    values, freqs = np.unique(est, return_counts=True)
    local_counts = dict(zip(values.tolist(), freqs.tolist()))
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


def _fair_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    x = (rng.random(n) < 0.5).astype(np.uint8)
    x.setflags(write=False)  # so that as_bits takes it as it is
    return x


def _window_minima(gn: int, gw: int, gi: int) -> Tuple[np.ndarray, np.ndarray]:
    """Full and gridded minimum window weights of every ``gn``-bit input, as uint8 arrays.

    Entry c belongs to the input whose bit j is bit j of c (gn <= 16); the
    gridded minimum takes only the starts s with s % gi == 0.  The window
    sums of all inputs slide together over bit rows: row j is bit j of
    every input, and the sum at start s adds row s+gw-1 and drops row s-1.
    """
    codes = np.arange(1 << gn, dtype=np.uint16)

    def row(j: int) -> np.ndarray:
        return ((codes >> j) & 1).astype(np.uint8)

    wsum = row(0)
    for j in range(1, gw):
        wsum += row(j)
    full, grid = wsum.copy(), wsum.copy()
    for s in range(1, gn - gw + 1):
        wsum += row(s + gw - 1)
        wsum -= row(s - 1)  # never wraps: row s-1 was added in
        np.minimum(full, wsum, out=full)
        if s % gi == 0:
            np.minimum(grid, wsum, out=grid)
    return full, grid


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
        x = _fair_bits(rng, n)
        est, _ = distributed.windowed_min_protocol(
            x, eps, delta, t, alpha_exp, rng, zero_noise=True, record=False
        )
        if est == min_window_weight_gridded(x, window, interval):
            matches += 1
    rows.append((0, "zero_noise_matches", matches))
    rows.append((0, "zero_noise_trials", trials))

    # exhaustive grid-vs-full comparison on every 16-bit input
    gn, gw, gi = 16, 4, 2
    full, grid = _window_minima(gn, gw, gi)
    violations = int(np.count_nonzero((grid < full) | (grid > full + (gi - 1))))
    rows.append((1, "grid_bound_violations", violations))
    rows.append((1, "grid_inputs_checked", 1 << gn))

    within = 0
    for k in range(noise_trials):
        rng = derive_rng(cfg.seed, 1, k)
        x = _fair_bits(rng, n)
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
    est_x, est_p = _rr_runs(np.array([x, pi_x]), eps, trials, rng).T
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


def experiment_def(name: str) -> ExperimentDef:
    """The registered experiment ``name``; ``KeyError`` naming the known ones if there is none."""
    if name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {name!r}; known: {known}")
    return EXPERIMENTS[name]


def run_rows(cfg: ExperimentConfig) -> Tuple[Dict[str, Any], List[Row]]:
    """Resolve and run an experiment, returning (params, rows)."""
    return experiment_def(cfg.experiment).runner(cfg)
