"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of a checkout (takes about a minute)::

    python3 -m pytest -q bench/test_smoke.py

Checks that every workload runs and prints every metric by name with its
unit, that two traced runs at one seed give the same call and work
counts, that the golden hashes still match at the pinned seed, and that
the benchmark fails cleanly where there is no program to measure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_STATS = (".calls", ".items", ".party_rounds")


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    return result


def assert_metrics(proc: subprocess.CompletedProcess, listed) -> dict:
    metrics = result_line(proc)["metrics"]
    assert list(metrics) == [m["name"] for m in listed]
    lines = proc.stdout.splitlines()
    for m in listed:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"]
        assert f"{m['name']} {got['value']:.6g} {m['unit']}" in lines
    return {name: m["value"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--tiny")
    values = assert_metrics(proc, SPEC["end_to_end"])
    assert all(v > 0 for v in values.values())
    assert any(line.startswith("error_rate 0 ") for line in proc.stdout.splitlines())


@pytest.fixture(scope="module")
def traced():
    """Two traced runs per workload at one seed: {workload: [values, values]}."""
    out = {}
    for workload in WORKLOADS:
        out[workload] = [
            assert_metrics(
                bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1", "--tiny"),
                SPEC["per_layer"],
            )
            for _ in range(2)
        ]
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(traced, workload):
    first, second = traced[workload]
    counts = [name for name in first if name.endswith(COUNT_STATS)]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_every_layer_metric_is_exercised(traced):
    for m in SPEC["per_layer"]:
        if m["name"] != "tracing.overhead_s":
            assert any(runs[0][m["name"]] > 0 for runs in traced.values()), m["name"]


def test_golden_hashes_match_at_pinned_seed():
    sys.path.insert(0, BENCH)
    import run

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import PINNED_SEED

    for workload in WORKLOADS:
        cmd = run.worker_cmd(workload, PINNED_SEED, 0, "--golden", os.path.join(BENCH, "golden.json"))
        proc = subprocess.run(cmd, cwd=ROOT, env=run.child_env(), capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["golden_checked"] and result["failed"] == 0, proc.stderr


def test_fails_without_the_program():
    bare = os.path.join(ROOT, ".bench_out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
