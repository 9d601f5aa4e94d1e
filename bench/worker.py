"""Benchmark worker: runs one workload's job list in this interpreter.

``run.py`` starts it in a fresh interpreter whose ``PYTHONPATH`` points at
the checkout's ``src/``.  The worker repeats the workload's fixed job list
(one pass) until ``--seconds`` have elapsed, a single client in a closed
loop, and checks every job's output right after the job.  With
``--trace 0`` it also times set-up probes, each a fresh interpreter
importing ``dpdist.cli``, spread over the whole run.  Every job and probe
is followed by a host-speed calibration (``calibration.host_factor``), and
the timing metrics are reported in reference seconds.  With ``--trace 1``
it spends the first half of the time untraced and the second half with
the span tracer installed, and derives the per-layer metrics from the
traced passes.  Its job outputs and spans
go under ``run.OUT_DIR``; its last stdout line is one JSON object for
``run.py``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

import numpy
import scipy

import calibration
import run
import tracing
import workloads

# What a `dpdist run` pays before its first job: importing the CLI, which
# builds the experiment registry.  The probe then measures the host factor
# in the same process, off the clock; its argument is the bench directory.
SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import dpdist.cli\n"
    "assert dpdist.cli.EXPERIMENTS\n"
    "seconds = time.perf_counter() - t0\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import calibration\n"
    "print(seconds, calibration.host_factor(seconds))\n"
)
# About this many set-up probes per run, spread over it (see measure).
SETUP_PROBES = 5


class Checker:
    """Checks job outputs; each job's first correct output becomes its reference.

    A later pass, traced or not, must reproduce the reference hash exactly.
    """

    def __init__(self, golden: Optional[Dict[str, str]]):
        self.golden = golden
        self.reference: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, job, out: Any, pass_idx: int) -> None:
        self.attempted += 1
        problem = self._problem(job, out)
        if problem:
            self.failed += 1
            print(f"FAIL {job.label} (pass {pass_idx}): {problem}", file=sys.stderr)

    def _problem(self, job, out: Any) -> Optional[str]:
        if out is None:
            return "job raised"
        digest = job.digest(out)
        ref = self.reference.get(job.label)
        if ref is not None:
            return None if digest == ref else f"output sha256 {digest} differs from the first pass's {ref}"
        problems = job.check(out)
        if self.golden is not None and digest != self.golden.get(job.label):
            problems.append(f"output sha256 {digest} != golden {self.golden.get(job.label)}")
        if problems:
            return "; ".join(problems)
        self.reference[job.label] = digest
        return None


def run_pass(jobs, checker: Checker, pass_idx: int, tracer: Optional[tracing.Tracer]):
    """One pass over the job list.

    Returns each job's wall seconds, the host factor measured after each
    job (see ``calibration``), and the pass's CPU seconds.  Each job's
    output is checked and dropped right after the job, off the clock, so no
    check time is timed, the peak memory is that of one job and its output,
    not of the whole pass, and the output is gone before the calibration
    runs.
    """
    walls: List[float] = []
    factors: List[float] = []
    cpu = 0.0
    for idx, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = idx
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            out = job.run()
        except Exception:  # a failing job is counted, and the loop goes on
            traceback.print_exc()
            out = None
        walls.append(time.perf_counter() - start)
        cpu += time.process_time() - cpu_start
        checker.check(job, out, pass_idx)
        del out
        factors.append(calibration.host_factor(walls[-1]))
    return walls, factors, cpu


def list_s(job_walls: List[List[float]], job_factors: List[List[float]]) -> float:
    """The job list in reference seconds: each job at its median over passes."""
    per_pass = [[w / f for w, f in zip(walls, factors)] for walls, factors in zip(job_walls, job_factors)]
    return sum(statistics.median(times) for times in zip(*per_pass))


def setup_probe() -> Tuple[float, float]:
    """Set-up time of one fresh interpreter, in this process's environment,
    and the host factor measured in that interpreter right after it."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, run.BENCH_DIR], stdout=subprocess.PIPE, text=True, timeout=60, check=True
    )
    seconds, factor = (float(v) for v in proc.stdout.split())
    return seconds, factor


def measure(jobs, checker: Checker, seconds: float, tracer: Optional[tracing.Tracer] = None, probe: bool = False):
    """Run passes until ``seconds`` have elapsed (at least one pass).

    Returns each pass's job wall times and host factors, the passes' CPU
    times, each pass's spans when traced, and, with ``probe``, the set-up
    probes: one after the first pass and one after each pass that ends
    ``seconds / SETUP_PROBES`` or more after the last probe.
    """
    walls: List[List[float]] = []
    factors: List[List[float]] = []
    cpus: List[float] = []
    spans: List[List[tracing.Span]] = []
    setup: List[Tuple[float, float]] = []
    start = time.perf_counter()
    last_probe = -math.inf
    while not walls or time.perf_counter() - start < seconds:
        job_times, job_factors, cpu = run_pass(jobs, checker, len(walls), tracer)
        if tracer is not None:
            spans.append(tracer.take())
        walls.append(job_times)
        factors.append(job_factors)
        cpus.append(cpu)
        if probe and time.perf_counter() - last_probe >= seconds / SETUP_PROBES:
            last_probe = time.perf_counter()
            setup.append(setup_probe())
    return walls, factors, cpus, spans, setup


def write_spans(path: str, spans: List[tracing.Span], origin: float) -> None:
    """Write one pass's spans as CSV, times in seconds since the worker started."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["job", "id", "parent", "name", "start_s", "end_s", "self_s", "items"])
        for s in spans:
            writer.writerow([s.job, s.id, s.parent, s.name,
                             f"{s.start - origin:.9f}", f"{s.end - origin:.9f}", f"{s.self_s:.9f}", s.items])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", help="golden hash file, applied at the pinned seed")
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    origin = time.perf_counter()
    jobs = workloads.build_jobs(args.workload, args.seed, os.path.join(run.OUT_DIR, args.workload), args.tiny)
    golden = None
    if args.golden and not args.tiny and args.seed == workloads.PINNED_SEED:
        with open(args.golden, encoding="utf-8") as fh:
            golden = json.load(fh)[args.workload]
    checker = Checker(golden)

    result: Dict[str, Any] = {
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
        "jobs": len(jobs),
        "golden_checked": golden is not None,
    }
    # Timings are in reference seconds (see calibration): wall_s is the job
    # list with each job at its median over passes, setup_s the median
    # probe.  The raw seconds and host factors go into the result too.
    if args.trace == 0:
        job_walls, job_factors, cpus, _, probes = measure(jobs, checker, args.seconds, probe=True)
        result["end_to_end"] = {
            "setup_s": statistics.median(seconds / factor for seconds, factor in probes),
            "wall_s": list_s(job_walls, job_factors),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["setup_probes"] = [{"seconds": seconds, "host_factor": factor} for seconds, factor in probes]
    else:
        job_walls, job_factors, cpus, _, _ = measure(jobs, checker, args.seconds / 2.0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_walls, traced_factors, _, passes, _ = measure(jobs, checker, args.seconds / 2.0, tracer)
        finally:
            tracer.uninstall()
        stats = [tracing.layer_stats(spans) for spans in passes]
        metrics = tracing.layer_metrics(stats)
        metrics["tracing.overhead_s"] = list_s(traced_walls, traced_factors) - list_s(job_walls, job_factors)
        metrics["tracing.span_coverage"] = statistics.median(
            tracing.top_level_time(spans) / sum(times) for spans, times in zip(passes, traced_walls)
        )
        result["per_layer"] = metrics
        result["traced_pass_walls"] = [sum(times) for times in traced_walls]
        spans_path = os.path.join(run.OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
        # Every traced pass feeds the metrics; one pass's spans (tens of MB
        # for all of them) show the call tree.
        write_spans(spans_path, passes[0], origin)
        result["spans_file"] = spans_path
    result.update(
        pass_walls=[sum(times) for times in job_walls],
        job_walls=job_walls,
        job_host_factors=job_factors,
        pass_cpu_s=cpus,
        attempted=checker.attempted,
        failed=checker.failed,
        hashes=checker.reference,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
