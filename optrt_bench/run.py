#!/usr/bin/env python3
"""Builds optrt_bench from this checkout and runs one workload.

    python3 optrt_bench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first call configures and builds
the library (src/) and the benchmark (optrt_bench/) into .bench_build/
with CMake in Release mode; later calls only rebuild what changed. Build
output goes to stderr. The benchmark's stdout passes through unchanged: its
last line is the result JSON, whose metric names and units must match the
end_to_end (or, with --trace 1, per_layer) list in BENCHMARK.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "optrt_bench")
RUN_TIMEOUT_S = 170


def build():
    """Returns the benchmark binary's path, or None when the build fails."""
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure + generator, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", BUILD, "--target", "optrt_bench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, "optrt_bench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1
    # Paths relative to ROOT keep the server's Unix socket path short
    # however deep the checkout sits.
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", ".bench_build/work"]
    if args.trace:
        cmd += ["--trace", ".bench_build/trace"]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        return run.returncode

    lines = run.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    want = expected_metrics(args.trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        print(f"run.py: metric names or units disagree with BENCHMARK.json: "
              f"missing {missing}, unexpected {extra}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
