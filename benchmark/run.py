#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  The first call
configures and builds benchmark/ (which compiles ../src itself) into
.bench_build/; later calls only rebuild what changed.  The program then
runs one workload: with --trace 0 the untraced protocol, which reports the
end_to_end metrics of BENCHMARK.json; with --trace 1 the traced pass,
which reports the per_layer metrics.

Stdout carries the program's "name value unit" lines, then, as the last
line, one JSON object with the keys correct, attempted, failed and
metrics.  The exit code is 0 only when every correctness check passed.
Without the repository's src/ next to benchmark/, it exits 2 before
printing a result.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "cmake"
RUN_DIR = ROOT / ".bench_build" / "run"
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"{ROOT / 'src'} is missing: run from a checkout of the repository")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "--target", "wirecap_bench",
         "-j", BUILD_JOBS],
        check=True, stdout=sys.stderr)
    return BUILD_DIR / "wirecap_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        die(f"build failed: {e}")

    RUN_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--scratch={RUN_DIR}"]
    if args.trace:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        die(f"wirecap_bench exited {proc.returncode} without a result", 1)
    for line in lines[:-1]:
        print(line)

    correct = proc.returncode == 0 and bool(result["ok"])
    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            print(f"run.py: metric {metric['name']} missing or in another unit",
                  file=sys.stderr)
            correct = False
            continue
        metrics[metric["name"]] = {"value": got["value"], "unit": got["unit"]}

    sys.stdout.flush()
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
