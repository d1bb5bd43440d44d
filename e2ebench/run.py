#!/usr/bin/env python3
"""End-to-end HTTP benchmark over the enterprise warehouse.

Run from the root of a source checkout:

    python3 e2ebench/run.py --workload adhoc_cold --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 10

Builds the benchmark binary from source (e2ebench/CMakeLists.txt, Release)
into $CARGO_TARGET_DIR or .bench_build, then runs it. One workload: its
output is passed through, and the last line of stdout is the result
object {"correct", "attempted", "failed", "metrics"}. `--workload all`
runs every workload of BENCHMARK.json untraced and prints a table of the
end-to-end metrics. The exit code is non-zero when the build fails, a
check fails, or the printed metrics differ from BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    out = build_dir()
    binary = os.path.join(out, "soda_e2ebench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return None
    if subprocess.call(["cmake", "--build", out, "-j", "4"],
                       stdout=sys.stderr) != 0:
        return None
    return binary if os.path.exists(binary) else None


def declared_metrics():
    """Metric names BENCHMARK.json declares, by trace mode; None if absent."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    return {
        "0": [m["name"] for m in spec["end_to_end"]],
        "1": [m["name"] for m in spec["per_layer"]],
        "workloads": [w["name"] for w in spec["workloads"]],
    }


def run_one(binary, workload, seed, seconds, trace, passthrough):
    spans_dir = os.path.join(build_dir(), "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace == 1:
        cmd += ["--spans-out",
                os.path.join(spans_dir, "%s-%s.json" % (workload, seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=None if passthrough else subprocess.DEVNULL,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("benchmark run exceeded %d s\n" % RUN_TIMEOUT_S)
        return None, 1
    lines = stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return result, proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        sys.stderr.write("build failed\n")
        return 1
    declared = declared_metrics()

    if args.workload == "all":
        if declared is None:
            sys.stderr.write("--workload all needs BENCHMARK.json\n")
            return 1
        status = 0
        for workload in declared["workloads"]:
            result, code = run_one(binary, workload, args.seed, args.seconds,
                                   0, passthrough=False)
            if result is None or code != 0 or not result.get("correct"):
                status = 1
            print("%s: correct=%s attempted=%s failed=%s" % (
                workload, result and result.get("correct"),
                result and result.get("attempted"),
                result and result.get("failed")))
            for name, metric in ((result or {}).get("metrics") or {}).items():
                print("  %-20s %14.4f %s" % (name, metric["value"],
                                              metric["unit"]))
        return status

    result, code = run_one(binary, args.workload, args.seed, args.seconds,
                           args.trace, passthrough=True)
    if result is None:
        return code or 1
    if declared is not None:
        want = declared[str(args.trace)]
        got = list(result.get("metrics", {}))
        if sorted(want) != sorted(got):
            sys.stderr.write("metrics differ from BENCHMARK.json: %s\n" %
                             sorted(set(want) ^ set(got)))
            return 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
