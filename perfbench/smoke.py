"""Smoke run of the benchmark at tiny size.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json untraced and traced for one second on
tiny inputs and fails unless each run exits 0, reports correct outputs with no
failed operation, and emits exactly the declared metrics with their units.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace),
                 "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            where = f"{workload} trace={trace}"
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{where}: correct={result['correct']} "
                              f"attempted={result['attempted']} failed={result['failed']}")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            if emitted != declared[trace]:
                missing = sorted(set(declared[trace]) - set(emitted))
                extra = sorted(set(emitted) - set(declared[trace]))
                wrong = sorted(k for k in emitted.keys() & declared[trace].keys()
                               if emitted[k] != declared[trace][k])
                errors.append(f"{where}: missing {missing} extra {extra} "
                              f"wrong units {wrong}")
            if trace == 0 and any(v["value"] == 0 for v in result["metrics"].values()):
                errors.append(f"{where}: an end-to-end metric reads 0")
            print(f"{where}: ok" if not errors else f"{where}: checked", flush=True)
    for error in errors:
        print(f"FAIL {error}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
