#!/usr/bin/env python3
"""Builds the ntadoc end-to-end benchmark and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (Release) into
.bench_build/; later calls only re-check the build. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. With --trace 1 the run also writes a Chrome
trace-event file under .bench_out/. Build output goes to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no ntadoc sources next to perfbench/ (expected src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if rc != 0:
            fail("cmake configure failed")
    rc = subprocess.call(
        ["cmake", "--build", BUILD, "-j", jobs, "--target", target],
        stdout=sys.stderr, stderr=sys.stderr)
    if rc != 0:
        fail("build failed")
    return os.path.join(BUILD, target)


def declared_metrics():
    """Metric names BENCHMARK.json declares, or None if it is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args, extra = ap.parse_known_args()

    if args.selftest:
        sys.exit(subprocess.call([build("perfbench_selftest")]))
    if not args.workload:
        fail("--workload is required")

    binary = build("ntadoc_perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            OUT, "trace_%s_seed%d.json" % (args.workload, args.seed))]
    cmd += extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    out = proc.stdout.decode()
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail("workload exited with code %d" % proc.returncode)

    lines = out.strip().splitlines()
    if not lines:
        fail("workload printed no result")
    result = json.loads(lines[-1])
    declared = declared_metrics()
    if declared is not None:
        want = declared[1] if args.trace else declared[0]
        got = set(result["metrics"])
        if got != want:
            fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
                 % (sorted(want - got), sorted(got - want)))
    sys.stdout.write(out if out.endswith("\n") else out + "\n")


if __name__ == "__main__":
    main()
