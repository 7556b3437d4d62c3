"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads fit eval score --seeds 0 1 2 3 4

Runs ``run.py --trace 0`` once per workload and seed, one run at a time, and
prints per metric the median, the quartiles and the interquartile distance as
a share of the median next to the metric's bound from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            print(f"{workload:6s} {name:12s} median={med:<12.6g} q1={q1:<12.6g} "
                  f"q3={q3:<12.6g} spread={share:.4f} bound={bounds[name]} "
                  f"spread/bound={share / bounds[name]:.2f} "
                  f"values={[float(f'{v:.5g}') for v in vals]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
