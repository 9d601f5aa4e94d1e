"""Run one dpdist benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload lean-trials --seed 1 --seconds 15 --trace 0

The workload runs in one fresh interpreter (``bench/worker.py``) with the
BLAS/OpenMP thread counts pinned to 1, so a small shared machine measures
the program rather than the scheduler.  With ``--trace 0`` the worker also
times set-up in fresh interpreters spread over the run.  Timings are in
reference seconds: measured seconds over the host factor that
``calibration.py`` measures next to each job and probe.  Every metric
is printed by name with its unit, followed by the error rate; the last
stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Workload and metric names and units come from
``BENCHMARK.json`` at the checkout root.  Provenance, per-pass times,
output hashes and (traced) spans are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
# The worker and its children are killed once this much time has passed
# since the start.
DEADLINE_S = 170.0
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> Dict[str, str]:
    env = dict(os.environ, **PINNED_ENV)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def worker_cmd(workload: str, seed: int, seconds: float, *extra: str) -> List[str]:
    """Command line of the worker for one workload; ``extra`` adds flags."""
    return [
        sys.executable, os.path.join(BENCH_DIR, "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), *extra,
    ]


def run_child(what: str, cmd: List[str], deadline: float) -> str:
    """Run a child to completion and return its stdout.

    The child runs in a session of its own; at the deadline the whole
    session, the child's own children included, is killed and reaped.
    """
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{what} exited with code {proc.returncode}")
    return out


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(".")))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(worker: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "numpy": worker["versions"]["numpy"],
        "scipy": worker["versions"]["scipy"],
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "pinned_env": PINNED_ENV,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one dpdist benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)
    start = time.monotonic()
    deadline = start + DEADLINE_S

    if not os.path.isfile(os.path.join("src", "dpdist", "__init__.py")):
        print("bench: no src/dpdist here; run from the root of a dpdist checkout", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("bench: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    cmd = worker_cmd(
        args.workload, args.seed, args.seconds, "--trace", str(args.trace),
        "--golden", os.path.join(BENCH_DIR, "golden.json"), *(["--tiny"] if args.tiny else []),
    )
    try:
        worker = json.loads(run_child("worker", cmd, deadline).strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    if args.trace == 0:
        values = worker["end_to_end"]
        listed = spec["end_to_end"]
    else:
        # A layer the workload never calls reports zero calls and zero time.
        values = {m["name"]: worker["per_layer"].get(m["name"], 0.0) for m in spec["per_layer"]}
        listed = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    attempted, failed = worker["attempted"], worker["failed"]
    prov = provenance(worker)

    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    walls = worker["pass_walls"]
    factors = [f for per_pass in worker["job_host_factors"] for f in per_pass]
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(walls)} untraced passes"
        f" of {worker['jobs']} jobs (raw seconds: fastest {min(walls):.6g}, median {statistics.median(walls):.6g},"
        f" slowest {max(walls):.6g}), host factor median {statistics.median(factors):.4g}"
        f" (range {min(factors):.4g}-{max(factors):.4g}), {len(worker.get('setup_probes', []))} set-up probes,"
        f" golden hashes {'checked' if worker['golden_checked'] else 'not applicable'}"
    )
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} jobs failed)")

    os.makedirs(OUT_DIR, exist_ok=True)
    record = dict(worker, provenance=prov, args=vars(args))
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
