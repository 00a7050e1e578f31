#!/usr/bin/env python3
"""Determinism self-check of lar-bench.

    python3 perfbench/test_determinism.py [--seconds S]

Runs every workload twice on seed 1 and once on seed 2 (short runs; builds
the driver first, like run.py).  Passes when every run's correctness checks
pass, the two seed-1 runs print identical `exact` lines (bit for bit: the
runtime traffic counts of paper_table and hash_remote, the simulator's plan
counts, traffic and throughput digest on every workload), and seed 2 changes
them, which shows that the seed reaches the inputs.  drift_waves has no
exact runtime counts (its waves race the live stream by design), so only
its simulator probe is compared.  Exits 0 on success, 1 otherwise.
"""

import argparse
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the runner's build step and paths)

WORKLOADS = ["paper_table", "hash_remote", "drift_waves", "sim_plan"]


def exact_counts(workload, seed, seconds):
    proc = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, check=False)
    exact = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "exact":
            exact[parts[1]] = parts[2]
    return proc.returncode, exact


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args()
    run.build()
    failures = 0
    for workload in WORKLOADS:
        rc1, first = exact_counts(workload, 1, args.seconds)
        rc2, second = exact_counts(workload, 1, args.seconds)
        rc3, other = exact_counts(workload, 2, args.seconds)
        problems = []
        if (rc1, rc2, rc3) != (0, 0, 0):
            problems.append("exit codes %s" % [rc1, rc2, rc3])
        if not first:
            problems.append("no exact counts printed")
        for name in sorted(set(first) | set(second)):
            if first.get(name) != second.get(name):
                problems.append("%s: %s vs %s on seed 1" % (
                    name, first.get(name), second.get(name)))
        if first and first == other:
            problems.append("seed 2 reproduces seed 1's counts")
        status = "ok" if not problems else "FAIL"
        print("%-12s %s  (%d exact counts)" % (workload, status, len(first)))
        for p in problems:
            print("    " + p)
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
