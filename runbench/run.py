#!/usr/bin/env python3
"""Build the run benchmark from source and run one workload.

    python3 runbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run configures and builds the
Spider library and the benchmark into .bench_build/runbench (Release); later
runs only re-check that build. Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result. That result's
metric names and units are checked against BENCHMARK.json before it is
passed on. The exit code is the benchmark's, or non-zero when the sources
are missing, the build fails or the result does not match BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "runbench")
BINARY = os.path.join(BUILD, "spider_runbench")


def fail(message):
    print("runbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("CMakeLists.txt", os.path.join("src", "core", "spider.hpp")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("library source %s not found; run from a full checkout" % needed)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "spider_runbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            fail("build step failed: " + " ".join(step))


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    expected = expected_metrics(args.trace)
    if proc.returncode == 0 and expected is not None:
        reported = {name: m["unit"] for name, m in json.loads(lines[-1])["metrics"].items()}
        if reported != expected:
            missing = sorted(set(expected) - set(reported))
            extra = sorted(set(reported) - set(expected))
            fail("metrics differ from BENCHMARK.json (missing %s, unexpected %s, "
                 "or a unit differs)" % (missing, extra))
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
