#!/usr/bin/env python3
"""lar-bench runner: builds lar_bench from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from anywhere inside a full checkout.  The first run configures and
builds the repository's libraries plus the benchmark driver (a Release build
in .bench_build/ at the checkout root; later runs only re-check it).  The
driver's standard output is relayed unchanged, so its last line is the JSON
result.  A traced run also writes its spans to .bench_build/traces/.

Exit status: the driver's (0 = every correctness check passed), 2 when the
checkout is incomplete or the build fails, 3 when the driver overran the
time limit, 4 when its result does not list exactly the metrics named in
BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "lar_bench")
RUN_TIMEOUT_S = 175


def fail(code, msg):
    print("lar-bench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, "the repository sources (src/) are missing next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "lar_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout is reserved for the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if proc.returncode != 0:
            fail(2, "build step failed: " + " ".join(cmd))


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(3, "%s overran %d s and was stopped" % (args.workload,
                                                     RUN_TIMEOUT_S))
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)

    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    want = expected_metrics(args.trace == "1")
    got = list(result.get("metrics", {}))
    if want is not None and sorted(got) != sorted(want):
        fail(4, "metrics %s do not match BENCHMARK.json %s" % (
            sorted(set(got) ^ set(want)), "per_layer" if args.trace == "1"
            else "end_to_end"))
    sys.exit(0)


if __name__ == "__main__":
    main()
