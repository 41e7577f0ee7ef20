#!/usr/bin/env python3
"""Collects benchmark result sets and compares two of them.

    python3 benchmark/compare.py collect OUT.jsonl [--seeds 1-10]
    python3 benchmark/compare.py BASE.jsonl NEW.jsonl

`collect` runs benchmark/run.py (--trace 0, BENCHMARK.json's run_seconds)
once per workload and seed, from the root of the checkout, and appends one
JSON line per run: the run's final JSON line plus every "name value unit
clock" line it printed.

Comparing prints one row per workload and end-to-end metric of
BENCHMARK.json: each side's median and quartiles, the change of the
medians (positive = worse), the metric's bound, and a verdict:

  better      the new side wins at least 9 of 10 same-seed pairs and the
              medians differ by more than the base side's quartile spread
              (or, when the spread exceeds the bound, every new run beats
              every base run)
  ok          not worse than the bound
  worse       the median worsened by more than the bound
  unresolved  a side's quartile spread exceeds the bound, so the bound
              cannot be resolved

Virtual-clock metrics are deterministic for a seed and must match bit for
bit; any difference is listed.  Exits 1 when a verdict is worse or a
virtual metric differs.  Standard library only.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(out_path, seeds, workloads, seconds):
    with open(out_path, "a") as out:
        for workload in workloads:
            for seed in seeds:
                proc = subprocess.run(
                    [sys.executable, "benchmark/run.py", "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", "0"],
                    cwd=ROOT, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                if not lines:
                    sys.exit(f"{workload} seed {seed}: no output "
                             f"(exit {proc.returncode})")
                record = json.loads(lines[-1])
                record["workload"] = workload
                record["seed"] = seed
                record["lines"] = {}
                for line in lines[:-1]:
                    name, value, unit, clock = line.split()[:4]
                    record["lines"][name] = {"value": float(value),
                                             "unit": unit, "clock": clock}
                out.write(json.dumps(record, sort_keys=True) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: correct={record['correct']}",
                      file=sys.stderr)


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs[(r["workload"], r["seed"])] = r
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def cell(q):
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def verdict(base, new, better, bound, pairs):
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (nm - bm) / bm if bm else 0.0
    spread = max((b3 - b1) / bm if bm else 0.0, (n3 - n1) / nm if nm else 0.0)
    new_wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    all_better = (max(new) < min(base)) if better == "lower" else (
        min(new) > max(base))
    if spread > bound:
        return worse_by, "better" if all_better else "unresolved"
    if worse_by > bound:
        return worse_by, "worse"
    if pairs and new_wins >= 0.9 * len(pairs) and abs(nm - bm) > (b3 - b1):
        return worse_by, "better"
    return worse_by, "ok"


def compare(base_path, new_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load(base_path), load(new_path)
    failed = False
    print(f"{'workload':<10} {'metric':<9} {'unit':<5} "
          f"{'base median [q1, q3]':<28} {'new median [q1, q3]':<28} "
          f"{'change':>8} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = sorted(s for (w, s) in base if w == workload and
                       (w, s) in new)
        if not seeds:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [base[(workload, s)]["metrics"][name]["value"] for s in seeds]
            n = [new[(workload, s)]["metrics"][name]["value"] for s in seeds]
            change, v = verdict(b, n, metric["better"], metric["bound"],
                                list(zip(b, n)))
            failed |= v == "worse"
            print(f"{workload:<10} {name:<9} {metric['unit']:<5} "
                  f"{cell(quartiles(b)):<28} {cell(quartiles(n)):<28} "
                  f"{100 * change:>7.2f}% {100 * metric['bound']:>5.0f}%  {v}")
        differing = []
        for s in seeds:
            bl = base[(workload, s)].get("lines", {})
            nl = new[(workload, s)].get("lines", {})
            for name, line in bl.items():
                if line["clock"] != "virtual":
                    continue
                other = nl.get(name)
                if other is None or other["value"] != line["value"]:
                    differing.append(f"{name}@seed{s}")
        if differing:
            failed = True
            print(f"{workload:<10} virtual metrics differ: "
                  + ", ".join(differing[:8]))
        else:
            print(f"{workload:<10} virtual metrics identical on "
                  f"{len(seeds)} seeds")
    return 1 if failed else 0


def main(argv):
    if argv[:1] == ["collect"] and len(argv) in (2, 4):
        if len(argv) == 4 and argv[2] != "--seeds":
            sys.exit(f"unknown option {argv[2]}")
        seeds = parse_seeds(argv[3]) if len(argv) == 4 else range(1, 11)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        collect(argv[1], seeds, [w["name"] for w in spec["workloads"]],
                spec["run_seconds"])
        return 0
    if len(argv) == 2:
        return compare(argv[0], argv[1])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
