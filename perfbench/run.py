#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload policy-ladder|simulate|online \
        --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (the first build compiles the
libraries), pins the environment the measurements assume (one domain,
no injected faults), runs the workload, and passes its output through.
The last line of standard output is the result object; every metric
it carries must be one that BENCHMARK.json lists for the mode.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("policy-ladder", "simulate", "online")
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def git_sha():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def check_result(stdout, trace):
    """The last line must be the result object, with exactly the
    metrics BENCHMARK.json lists for this mode."""
    lines = stdout.strip().splitlines()
    if not lines:
        return "no output"
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are not correct/attempted/failed/metrics"
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    listed = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != listed:
        return "metrics differ from BENCHMARK.json: %s" % sorted(
            set(result["metrics"]) ^ listed)
    return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("run from the root of a source checkout (no dune-project/lib here)")
    if "DPM_FAULTS" in os.environ:
        return fail("DPM_FAULTS is set; unset it to measure")

    env = dict(os.environ, DPM_DOMAINS="1", PERFBENCH_GIT_SHA=git_sha())
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        return fail("build failed: %s" % e)
    if build.returncode != 0:
        return fail("build failed")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("workload timed out")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        return fail("workload exited with %d" % run.returncode)
    problem = check_result(run.stdout, args.trace == 1)
    if problem:
        sys.stderr.write(run.stdout)
        return fail(problem)
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
