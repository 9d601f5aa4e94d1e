"""Record the golden output hashes that the benchmark checks at the pinned seed.

Usage, from the root of a checkout::

    python3 bench/make_golden.py

Runs each workload's full-size job list once at ``workloads.PINNED_SEED``,
with the invariant checks on, and writes every job's output sha256 to
``bench/golden.json``.  Run it only on a commit whose outputs are known to
be right; a change that alters outputs on purpose regenerates the file and
says why.
"""

from __future__ import annotations

import json
import os
import sys
import time

import run

sys.path.insert(0, os.path.abspath("src"))
from workloads import PINNED_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    golden = {}
    for workload in WORKLOADS:
        cmd = run.worker_cmd(workload, PINNED_SEED, 0)
        result = json.loads(run.run_child("worker", cmd, time.monotonic() + run.DEADLINE_S).strip().splitlines()[-1])
        if result["failed"]:
            print(f"{workload}: {result['failed']} jobs failed their checks; no golden file written", file=sys.stderr)
            return 1
        golden[workload] = result["hashes"]
    path = os.path.join(run.BENCH_DIR, "golden.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
