"""Job lists and output checks for the four benchmark workloads.

A workload is a fixed list of jobs.  Experiment jobs go through
``dpdist.cli.run_experiment`` exactly as ``dpdist run --out FILE`` does;
recorded jobs call the public ``dpdist.distributed`` protocols with
recording on, take a coalition view and round-trip the transcript through
``write_execution`` / ``read_execution_records``.

Every job's output is checked.  At the pinned seed the sha256 of its CSV
(or of its written transcript file) must equal the golden hash recorded
from the seed commit; at every seed the exact invariants below must hold.
Sampled statistics are checked at five standard errors, so a correct
program fails a check with probability below 1e-6 at any seed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from dpdist import distributed, seeding
from dpdist.cli import run_experiment
from dpdist.experiments import ExperimentConfig

PINNED_SEED = 1
WORKLOADS = ("lean-trials", "audit-panels", "exact-engine", "recorded-transcripts")

# Sampled statistics are compared with their exact values at this many
# standard errors.
Z = 5.0
EXACT_TOL = 1e-12


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Experiment jobs
# ---------------------------------------------------------------------------


@dataclass
class ExperimentJob:
    label: str
    cfg: ExperimentConfig

    def run(self) -> str:
        return run_experiment(self.cfg)

    def digest(self, out: str) -> str:
        return sha256_hex(out.encode("utf-8"))

    def check(self, out: str) -> List[str]:
        params, rows = parse_csv(out)
        problems = []
        if params.get("seed") != self.cfg.seed:
            problems.append(f"param seed {params.get('seed')} != {self.cfg.seed}")
        return problems + EXPERIMENT_CHECKS[self.cfg.experiment](params, rows)


def parse_csv(text: str) -> Tuple[Dict[str, Any], Dict[str, List[float]]]:
    """Split a result CSV into its params and ``{metric: [values by row]}``."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != ["experiment", "trial", "param_json", "metric", "value"]:
        raise ValueError(f"unexpected CSV header {header}")
    params: Dict[str, Any] = {}
    rows: Dict[str, List[float]] = {}
    for _, _, param_json, metric, value in reader:
        params = json.loads(param_json)
        rows.setdefault(metric, []).append(float(value))
    return params, rows


def _require(problems: List[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


def _check_gaussian_aggregator(params, rows) -> List[str]:
    # Only the variance clause of the acceptance criterion; its tail clause
    # cannot hold (erfc(sqrt(3)) > 0.01).  The 5% tolerance needs about
    # 2e4 trials to be a 5-sigma check, so smaller runs use Z standard
    # errors of the sample variance instead: 50% at the benchmark's 200
    # trials.  The recorded gaussian job checks the per-party noise scale
    # from its tapes far tighter (RecordedJob._gaussian_noise_problems).
    p: List[str] = []
    n, eps, trials = params["n"], params["eps"], params["trials"]
    errors = np.array(rows["error"])
    expected = 6.0 * math.log(n) ** 2 / eps**2
    _require(p, errors.size == trials, f"{errors.size} error rows for {trials} trials")
    _require(p, math.isclose(params["noise_variance"], expected, rel_tol=1e-12),
             "noise_variance param differs from 6 ln(n)^2 / eps^2")
    tol = max(0.05, Z * math.sqrt(2.0 / (trials - 1)))
    ratio = float(errors.var(ddof=1)) / expected
    _require(p, abs(ratio - 1.0) <= tol, f"error variance / expected = {ratio:.4f}, tol {tol:.4f}")
    return p


def _check_symmetry(params, rows) -> List[str]:
    p: List[str] = []
    _require(p, rows["max_perm_distance_n4"][0] <= EXACT_TOL, "count distribution not permutation invariant")
    pvalue = rows["chi2_pvalue"][0]
    _require(p, 0.0 <= pvalue <= 1.0, f"chi2 p-value {pvalue} outside [0, 1]")
    _require(p, rows["reject_at_0.001"][0] == float(pvalue < 0.001), "reject flag disagrees with p-value")
    return p


def _check_dist_alpha(params, rows) -> List[str]:
    p: List[str] = []
    _require(p, rows["zero_noise_matches"][0] == rows["zero_noise_trials"][0] == params["trials"],
             "zero-noise windowed minimum differs from the gridded minimum")
    _require(p, rows["grid_bound_violations"][0] == 0, "grid bound violated")
    _require(p, rows["grid_inputs_checked"][0] == 1 << 16, "grid check did not cover 2^16 inputs")
    within, total = rows["noise_within_bound"][0], rows["noise_trials"][0]
    _require(p, total == params["noise_trials"] and rows["within_rate"][0] == within / total,
             "noise trial bookkeeping inconsistent")
    return p


def _check_rr_sum_error(params, rows) -> List[str]:
    p: List[str] = []
    n, eps, trials, true = params["n"], params["eps"], params["trials"], params["input_sum"]
    err, abs_err = np.array(rows["error"]), np.array(rows["abs_error"])
    _require(p, err.size == abs_err.size == trials, "row count differs from trials")
    _require(p, true == n // 2, "input sum is not n // 2")
    _require(p, bool(np.all(abs_err == np.abs(err))), "abs_error != |error|")
    # Every estimate debiases an integer count of reported ones in [0, n].
    bias = eps / (4.0 + 2.0 * eps)
    counts = (err + true) * 2.0 * bias + (0.5 - bias) * n
    _require(p, bool(np.all(np.abs(counts - np.rint(counts)) <= 1e-6)), "estimate is not a debiased integer count")
    _require(p, bool(np.all((counts > -0.5) & (counts < n + 0.5))), "count outside [0, n]")
    se = math.sqrt(n * (0.25 - bias**2) / (4.0 * bias**2) / trials)
    _require(p, abs(err.mean()) <= Z * se, f"mean error {err.mean():.3f} beyond {Z} standard errors")
    return p


def _check_v_bounds(params, rows) -> List[str]:
    p: List[str] = []
    views = sum(rows["views"])
    _require(p, views == params["trials"], f"{views} views for {params['trials']} trials")
    _require(p, sum(rows["hard_violations"]) == 0, "hard ratio bound violated")
    _require(p, max(rows["max_abs_v"]) <= params["hard_bound"], "max |v| above the hard bound")
    mean = sum(rows["sum_v_total"]) / views
    _require(p, mean <= params["sum_mean_bound"], f"mean log total {mean} above its bound")
    # The report count is exactly Bin(n, q) with q = a keep + (1-a)(1-keep),
    # and the log total is linear in it, so its mean has a closed form.
    n, a, eps = params["n"], params["density"], params["eps"]
    keep = 0.5 + eps / (4.0 + 2.0 * eps)
    q = a * keep + (1.0 - a) * (1.0 - keep)
    v_one, v_zero = math.log(q / (1.0 - keep)), math.log((1.0 - q) / keep)
    exact = n * (q * v_one + (1.0 - q) * v_zero)
    var = (sum(rows["sum_v_sq_total"]) / views - mean**2) * views / (views - 1)
    _require(p, abs(mean - exact) <= Z * math.sqrt(var / views),
             f"mean log total {mean} beyond {Z} standard errors of its exact value {exact}")
    return p


def _check_hoeffding_tail(params, rows) -> List[str]:
    p: List[str] = []
    views, exceed = sum(rows["views"]), sum(rows["exceed_count"])
    _require(p, views == params["trials"], f"{views} views for {params['trials']} trials")
    bound = params["bound"]
    _require(p, exceed / views <= bound + Z * math.sqrt(bound / views), "exceedance rate above the Hoeffding bound")
    return p


def _check_laplace_tails(params, rows) -> List[str]:
    p: List[str] = []
    trials = params["trials"]
    for k, (rate, expected, dev) in enumerate(zip(rows["tail_rate"], rows["expected"], rows["abs_dev"]), 1):
        _require(p, expected == math.exp(-k), f"k={k}: expected is not e^-k")
        _require(p, dev == abs(rate - expected), f"k={k}: abs_dev inconsistent")
        se = math.sqrt(expected * (1.0 - expected) / trials)
        _require(p, dev <= Z * se, f"k={k}: tail rate {rate} beyond {Z} standard errors of e^-k")
    return p


def _check_chernoff_tail(params, rows) -> List[str]:
    p: List[str] = []
    draws, low = sum(rows["draws"]), sum(rows["low_count"])
    _require(p, draws == params["trials"], f"{draws} draws for {params['trials']} trials")
    bound = params["bound"]
    _require(p, low / draws <= bound + Z * math.sqrt(bound / draws), "lower-tail rate above the Chernoff bound")
    return p


def _check_phase_transition(params, rows) -> List[str]:
    p: List[str] = []
    n, eps = params["n"], params["eps"]
    expected_taus = [m * math.sqrt(n) / eps for m in (0.1, 0.3, 1.0, 3.0, 10.0)]
    _require(p, rows["tau"] == expected_taus == params["taus"], "tau sweep differs from m sqrt(n)/eps")
    for name in ("error_case_i", "error_case_ii", "qualifying_rate"):
        _require(p, all(0.0 <= v <= 1.0 for v in rows[name]), f"{name} outside [0, 1]")
    _require(p, rows["max_error"] == [max(a, b) for a, b in zip(rows["error_case_i"], rows["error_case_ii"])],
             "max_error is not the larger error case")
    # One sample serves the whole sweep, so both rates fall as tau grows.
    for name in ("error_case_ii", "qualifying_rate"):
        v = rows[name]
        _require(p, all(a >= b for a, b in zip(v, v[1:])), f"{name} not monotone in tau")
    return p


def _check_rr_distributed(params, rows) -> List[str]:
    p: List[str] = []
    n = params["n"]
    _require(p, rows["messages"][0] == rows["expected_messages"][0] == 2 * (n - 1), "message count != 2(n-1)")
    _require(p, rows["n1_messages"][0] == 0, "single-party run sent messages")
    pvalue = rows["chi2_pvalue"][0]
    _require(p, 0.0 <= pvalue <= 1.0, f"chi2 p-value {pvalue} outside [0, 1]")
    _require(p, rows["reject_at_0.001"][0] == float(pvalue < 0.001), "reject flag disagrees with p-value")
    return p


def _check_compile_to_local(params, rows) -> List[str]:
    p: List[str] = []
    _require(p, len(rows["max_output_dist_diff"]) == 3, "expected three compiler fixtures")
    _require(p, max(rows["max_output_dist_diff"]) <= EXACT_TOL, "compiled output distribution differs")
    _require(p, all(v == 1.0 for v in rows["messages_preserved"]), "compiler lost or altered messages")
    _require(p, [r + 1 for r in rows["rounds_in"]] == rows["rounds_out"], "compiler did not add exactly one round")
    return p


def _check_transcript_factorization(params, rows) -> List[str]:
    p: List[str] = []
    _require(p, max(rows["max_abs_diff"]) <= EXACT_TOL, "transcript probability does not factor per party")
    _require(p, all(c > 0 for c in rows["transcripts_checked"]), "no transcripts checked")
    return p


def _check_definition_equivalence(params, rows) -> List[str]:
    p: List[str] = []
    _require(p, all(v == 1.0 for v in rows["passed"]), "collective and individual privacy differ")
    for c, i in zip(rows["collective"], rows["individual"]):
        _require(p, math.isclose(c, i, rel_tol=1e-9), f"collective {c} != individual {i}")
    return p


EXPERIMENT_CHECKS: Dict[str, Callable[[Dict[str, Any], Dict[str, List[float]]], List[str]]] = {
    "gaussian-aggregator": _check_gaussian_aggregator,
    "symmetry": _check_symmetry,
    "dist-alpha": _check_dist_alpha,
    "rr-sum-error": _check_rr_sum_error,
    "v-bounds": _check_v_bounds,
    "hoeffding-tail": _check_hoeffding_tail,
    "laplace-tails": _check_laplace_tails,
    "chernoff-tail": _check_chernoff_tail,
    "phase-transition": _check_phase_transition,
    "rr-distributed": _check_rr_distributed,
    "compile-to-local": _check_compile_to_local,
    "transcript-factorization": _check_transcript_factorization,
    "definition-equivalence": _check_definition_equivalence,
}


# ---------------------------------------------------------------------------
# Recorded-transcript jobs
# ---------------------------------------------------------------------------

# The coalition whose view is taken: party 0, which every protocol here
# uses as its aggregator and so receives the most messages.
COALITION = (0,)
GA_EPS = 1.0
WM_EPS, WM_DELTA, WM_T, WM_ALPHA = 1.0, 0.01, 7, 0.75


@dataclass
class RecordedOutput:
    execution: distributed.Execution
    estimate: float
    view: distributed.CoalitionView
    read_back: List[distributed.Message]
    path: str


@dataclass
class RecordedJob:
    label: str
    protocol: str  # "gaussian", "windowed-min" or "rr"
    x: np.ndarray
    seed: int
    path: str

    def run(self) -> RecordedOutput:
        rng = seeding.derive_rng(self.seed)
        if self.protocol == "gaussian":
            estimate, e = distributed.gaussian_aggregator_sum(self.x, GA_EPS, rng, record=True)
        elif self.protocol == "windowed-min":
            estimate, e = distributed.windowed_min_protocol(
                self.x, WM_EPS, WM_DELTA, WM_T, WM_ALPHA, rng, record=True
            )
        else:
            e = distributed.randomized_response_distributed(self.x, 1.0, rng, record=True)
            estimate = e.output
        view = distributed.coalition_view(e, COALITION)
        distributed.write_execution(e, self.path)
        return RecordedOutput(e, estimate, view, distributed.read_execution_records(self.path), self.path)

    def digest(self, out: RecordedOutput) -> str:
        with open(out.path, "rb") as fh:
            return sha256_hex(fh.read())

    def closed_forms(self) -> Tuple[int, int, int]:
        """(rounds, messages, messages received by the coalition)."""
        n = self.x.size
        if self.protocol == "windowed-min":
            _, interval = distributed.windowed_min_sizes(n, WM_ALPHA)
            n_intervals = n // interval
            total = (WM_T + 1) * (n - 1) + WM_T * n_intervals + (n - 1)
            return 3, total, (n - 1) + WM_T * n_intervals
        return 2, 2 * (n - 1), n - 1

    def check(self, out: RecordedOutput) -> List[str]:
        p: List[str] = []
        e = out.execution
        rounds, messages, received = self.closed_forms()
        _require(p, e.rounds == rounds, f"{e.rounds} rounds, expected {rounds}")
        _require(p, e.n_messages == messages == len(e.transcript), f"{e.n_messages} messages, expected {messages}")
        _require(p, e.inputs == tuple(int(b) for b in self.x), "execution inputs differ from the input")
        _require(p, e.output == out.estimate, "execution output differs from the returned estimate")
        _require(p, out.read_back == list(e.transcript), "records read back differ from the transcript")
        _require(p, out.view.coalition == COALITION and len(out.view.received) == received,
                 f"coalition received {len(out.view.received)} messages, expected {received}")
        _require(p, out.view.inputs == tuple(int(self.x[i]) for i in COALITION), "coalition inputs differ")
        _require(p, self._messages_match_tapes(e), "transcript symbols disagree with the inputs and tapes")
        if self.protocol == "gaussian":
            p += self._gaussian_noise_problems(e)
        return p

    def _gaussian_noise_problems(self, e: distributed.Execution) -> List[str]:
        """The parties' recorded noise against N(0, 6 ln(n)^2 / (n eps^2)).

        Mean and variance are checked at Z standard errors of the sample
        mean and sample variance: the variance to about 7% at n = 10^4.
        """
        p: List[str] = []
        noise = np.asarray(e.tapes, dtype=float)
        n = noise.size
        expected = 6.0 * math.log(n) ** 2 / (n * GA_EPS**2)
        _require(p, abs(noise.mean()) <= Z * math.sqrt(expected / n),
                 f"noise mean {noise.mean():.4g} beyond {Z} standard errors of 0")
        ratio = float(noise.var(ddof=1)) / expected
        tol = Z * math.sqrt(2.0 / (n - 1))
        _require(p, abs(ratio - 1.0) <= tol, f"noise variance / expected = {ratio:.4f}, tol {tol:.4f}")
        return p

    def _messages_match_tapes(self, e: distributed.Execution) -> bool:
        """Recompute every message symbol from the inputs and recorded tapes.

        The last round always announces the output.  Gaussian reports are
        x_i + noise_i; randomized-response reports are x_i or its flip as
        the tape says; windowed-min shares are the tape's shares, and each
        aggregator's per-interval sum is their sum mod q.
        """
        x, tapes, last = self.x, e.tapes, e.rounds
        by_round: Dict[int, List[distributed.Message]] = {}
        for m in e.transcript:
            by_round.setdefault(m.round, []).append(m)
        if any(m.symbol != e.output for m in by_round[last]):
            return False
        first = by_round[1]
        if self.protocol == "gaussian":
            return all(m.symbol == int(x[m.sender]) + tapes[m.sender] for m in first)
        if self.protocol == "rr":
            return all(m.symbol == (int(x[m.sender]) if tapes[m.sender] else 1 - int(x[m.sender])) for m in first)
        if any(m.symbol != tapes[m.sender][1][m.receiver] for m in first):
            return False
        n = x.size
        _, interval = distributed.windowed_min_sizes(n, WM_ALPHA)
        q = distributed.DEFAULT_MODULUS
        expected = [
            (j, sum(tapes[i][1][j] for i in range(start, start + interval)) % q)
            for j in range(1, WM_T + 1)
            for start in range(0, n, interval)
        ]
        return [(m.sender, m.symbol) for m in by_round[2]] == expected


# ---------------------------------------------------------------------------
# Job lists
# ---------------------------------------------------------------------------


def _experiment_jobs(specs, seed: int, out_dir: str) -> List[ExperimentJob]:
    jobs = []
    for idx, (name, repeats, knobs) in enumerate(specs):
        for r in range(repeats):
            label = f"{name}#{r}"
            path = os.path.join(out_dir, f"{label}.csv")
            cfg = ExperimentConfig(experiment=name, seed=seed * 1000 + idx * 100 + r, out=path, **knobs)
            jobs.append(ExperimentJob(label, cfg))
    return jobs


def build_jobs(workload: str, seed: int, out_dir: str, tiny: bool = False) -> List[Any]:
    """The fixed job list of one workload; inputs and seeds derive from ``seed``.

    ``tiny`` shrinks every trial count and input size so the whole list runs
    in about a second; it exists for the benchmark's own smoke test.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    os.makedirs(out_dir, exist_ok=True)

    def size(full: int, small: int) -> int:
        return small if tiny else full

    if workload == "lean-trials":
        specs = [
            ("gaussian-aggregator", 1, dict(n=10_000, trials=size(200, 20))),
            ("symmetry", 1, dict(n=100, trials=size(2500, 50))),
            ("dist-alpha", 1, dict(n=4096, t=7, alpha_exp=0.75, trials=size(50, 5))),
            ("rr-sum-error", 1, dict(n=10_000, trials=size(1000, 50))),
        ]
        return _experiment_jobs(specs, seed, out_dir)
    if workload == "audit-panels":
        panel = dict(n=10_000, d=4.0)
        specs = [
            ("v-bounds", 1, dict(panel, trials=size(1 << 20, (1 << 16) + 1))),
            ("hoeffding-tail", 1, dict(panel, trials=size(1 << 20, (1 << 16) + 1))),
            ("laplace-tails", 1, dict(trials=size(1 << 22, 1 << 16))),
            ("chernoff-tail", 1, dict(panel, trials=size(1 << 21, 1 << 16))),
            ("phase-transition", 1, dict(panel, trials=size(1 << 19, 1 << 12))),
        ]
        return _experiment_jobs(specs, seed, out_dir)
    if workload == "exact-engine":
        # The two exhaustive fixture audits take milliseconds each; repeating
        # them gives every layer of the exact engine a visible share of wall_s.
        specs = [
            ("rr-distributed", 1, dict(n=16, trials=size(1000, 50))),
            ("compile-to-local", 1, {}),
            ("transcript-factorization", size(8, 1), {}),
            ("definition-equivalence", size(16, 1), {}),
        ]
        return _experiment_jobs(specs, seed, out_dir)
    if workload == "recorded-transcripts":
        sizes = {"gaussian": size(10_000, 256), "windowed-min": size(4096, 256), "rr": size(1000, 64)}
        jobs = []
        for r in range(size(2, 1)):
            for idx, (protocol, n) in enumerate(sizes.items()):
                input_rng = np.random.default_rng([seed, r, idx])
                x = (input_rng.random(n) < 0.5).astype(np.uint8)
                label = f"{protocol}#{r}"
                path = os.path.join(out_dir, f"{label}.records")
                jobs.append(RecordedJob(label, protocol, x, seed * 1000 + r * 10 + idx, path))
        return jobs
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
