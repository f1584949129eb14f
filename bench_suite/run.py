#!/usr/bin/env python3
"""Builds bench_suite from source and runs one workload of the benchmark.

Run from the repository root:

  python3 bench_suite/run.py --workload box_aa --seed 1 --seconds 30 --trace 0
  python3 bench_suite/run.py --workload all --seed 1           # every one
  python3 bench_suite/run.py --workload all --quick --trace 1  # smoke run

The build goes to $CARGO_TARGET_DIR/bench_suite (default
.bench_build/bench_suite); scratch files, results and traces go next to it.
Each workload runs in its own process. The last line of standard output is
the result object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1. The script checks both lists against BENCHMARK.json and
prints no result when they disagree.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "bench_suite")


def build(out):
    """Configures once, then builds incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "bench_suite")


def run_workload(binary, spec, args, workload):
    out = os.path.dirname(binary)
    mode = "traced" if args.trace else "untraced"
    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--work", os.path.join(out, "work"),
           "--out",
           os.path.join(results, f"{workload}_seed{args.seed}_{mode}.json")]
    if args.trace:
        cmd += ["--trace", os.path.join(out, "trace")]
    if args.quick:
        cmd.append("--quick")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None, 1
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(proc.stdout, end="")
        print(f"run.py: {workload} printed no result (exit {proc.returncode})",
              file=sys.stderr)
        return None, proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != {m["name"]: m["unit"] for m in wanted}:
        print(f"run.py: {workload} metrics disagree with BENCHMARK.json",
              file=sys.stderr)
        return None, 1
    return lines[-1], proc.returncode


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all",
                   help="a workload name, or 'all' for those in BENCHMARK.json")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--quick", action="store_true",
                   help="shrink every input so a run takes seconds")
    args = p.parse_args()

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    status = 0
    for workload in names if args.workload == "all" else [args.workload]:
        line, code = run_workload(binary, spec, args, workload)
        if line is None:
            return code
        print(line)
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
