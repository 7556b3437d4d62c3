"""Record the benchmark's end-to-end metrics of one or more checkouts.

Run from the repository root:

    python3 bench/record.py 12                          # this checkout
    python3 bench/record.py 12 /path/to/parent=11       # and another one

Each argument is ``[DIR=]N``: the checkout in DIR (default: this repository)
is recorded as ``bench/BENCH_<N>.json`` here. Every checkout runs
``perfbench/run.py --seconds 25`` for the fit and eval workloads on seeds
0, 1 and 2, and for the score workload on seeds 0 to 8: score's
``op_tail_ms`` spreads about 2x between seeds of one commit, so a median
over three of them can move by more than the metric's bound. The runs
alternate between the checkouts, and each (workload, seed) starts with the
next one, so drift of the host's speed falls on all of them. A file holds
the seeds of each workload, per workload the median over its seeds of the
six end-to-end metrics of BENCHMARK.json, then every run's metrics, the
commit the checkout was at and the machine: CPU model, Python, numpy and
BLAS.
"""
from __future__ import annotations

import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = {"fit": (0, 1, 2), "eval": (0, 1, 2), "score": tuple(range(9))}
SECONDS = 25


def git(root: str, *args: str) -> str | None:
    done = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def source(root: str) -> dict:
    """The commit of a checkout, whether its sources differ from it, and a
    hash of ``src/``, which tells uncommitted trees apart."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    status = git(root, "status", "--porcelain", "--", "src", "perfbench")
    return {"commit": git(root, "rev-parse", "HEAD"),
            "dirty": bool(status) if status is not None else None,
            "src_sha256": digest.hexdigest()}


def machine() -> dict:
    """CPU model, Python, numpy and the BLAS numpy was built with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"cpu": cpu or platform.processor(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: v for k, v in blas.items() if "directory" not in k}}


def run(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``root``: its JSON result line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def record(checkouts: list, seconds: float = SECONDS, seeds=SEEDS) -> dict:
    """{number: BENCH contents} for [(root, number), ...]."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = [m["name"] for m in json.load(fh)["end_to_end"]]
    runs = {n: [] for _, n in checkouts}
    turn = 0
    for workload, workload_seeds in seeds.items():
        for seed in workload_seeds:
            for k in range(len(checkouts)):
                root, number = checkouts[(turn + k) % len(checkouts)]
                result = run(root, workload, seed, seconds)
                runs[number].append({
                    "workload": workload, "seed": seed,
                    "attempted": result["attempted"], "failed": result["failed"],
                    "correct": result["correct"],
                    "metrics": {m: result["metrics"][m]["value"] for m in metrics}})
                print(f"# {number} {workload} seed {seed}: "
                      + " ".join(f"{m}={v:.4g}" for m, v in runs[number][-1]["metrics"].items()),
                      file=sys.stderr)
            turn += 1
    host = machine()
    return {number: {
        "number": number,
        **source(root),
        "machine": host,
        "command": f"perfbench/run.py --seconds {seconds:g}",
        "seeds": {w: list(s) for w, s in seeds.items()},
        "medians": {w: {m: statistics.median(r["metrics"][m] for r in runs[number]
                                              if r["workload"] == w)
                        for m in metrics} for w in seeds},
        "runs": runs[number],
    } for root, number in checkouts}


def main(argv: list) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    checkouts = []
    for arg in argv:
        root, _, number = arg.rpartition("=")
        checkouts.append((os.path.abspath(root or ROOT), int(number)))
    for number, contents in record(checkouts).items():
        with open(os.path.join(HERE, f"BENCH_{number}.json"), "w") as fh:
            json.dump(contents, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
