"""Benchmark of the tck library: the fit, eval and score workloads.

Run from the repository root:

    python3 perfbench/run.py --workload fit --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
tracing installed. ``--trace 1`` sets up once with tracing, runs the timed
loop for half the time untraced and half traced, and reports the per-layer
metrics; the ratio of the two halves is the tracing overhead. Human-readable
lines start with ``#``; the last line of standard output is the JSON result.
Run records and span files go to ``.perfbench_runs/`` in the repository.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_runs")
# An untraced run sets up at least SETUPS times and until MIN_SETUP_S have
# passed; setup_s is the median.
SETUPS = 3
MIN_SETUP_S = 3.0
MIN_TAIL_SAMPLES = 20  # below this the tail is the maximum
# The tail is taken in consecutive windows of at least TAIL_WINDOW samples and
# the median over windows is reported, so one burst of load on a shared host
# moves one window rather than the whole run's tail.
TAIL_WINDOW = 100


class Recorder:
    """Times operations and numbers them as requests for the tracer."""

    class Section:
        def __init__(self):
            self.units = 1

    def __init__(self, tracer=None, first_request=0):
        self.tracer = tracer
        self.next_request = first_request
        self.requests = []
        self.samples = defaultdict(list)   # seconds per operation or section kind
        self.starts = defaultdict(list)    # perf_counter at each sample's start
        self.units = defaultdict(float)    # work units per kind
        self.op_seconds = 0.0

    @contextlib.contextmanager
    def section(self, kind):
        """Time a part of an operation; set ``units`` on the yielded object."""
        sec = self.Section()
        start = time.perf_counter()
        yield sec
        self.samples[kind].append(time.perf_counter() - start)
        self.starts[kind].append(start)
        self.units[kind] += sec.units

    @contextlib.contextmanager
    def op(self, kind, units=1):
        """Time one operation, which is one request of one client."""
        request = self.next_request
        self.next_request += 1
        if self.tracer is not None:
            self.tracer.request = request
        start = time.perf_counter()
        yield
        elapsed = time.perf_counter() - start
        self.samples[kind].append(elapsed)
        self.starts[kind].append(start)
        self.units[kind] += units
        self.op_seconds += elapsed
        self.requests.append(request)
        if self.tracer is not None:
            self.tracer.request = None


def tail(samples):
    """(value, percentile, samples beyond, windows) of samples in time order.

    Within each window the tail is the highest percentile with at least ten
    samples beyond it; the value is the median over windows. Below
    MIN_TAIL_SAMPLES it is the maximum.
    """
    n = len(samples)
    if n < MIN_TAIL_SAMPLES:
        return max(samples), 100.0, 0, 1
    windows = max(1, n // TAIL_WINDOW)
    bounds = [n * i // windows for i in range(windows + 1)]
    values = [sorted(samples[a:b])[-11] for a, b in zip(bounds, bounds[1:])]
    size = n / windows
    return statistics.median(values), 100.0 * (size - 10) / size, 10, windows


def environment():
    """What the run ran on; BLAS threads are read, never set."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "machine": platform.machine(),
    }


def measure(workload, state, rec, seconds, tally):
    """Closed loop: run whole rounds of steps until ``seconds`` have passed.

    A round visits each of the workload's inputs once, so per-operation
    counts repeat exactly between runs of one seed. Steps rotate the main
    thread over the CPUs the process may use: on a shared VM the scheduler
    keeps a thread on one vCPU for tens of seconds while vCPU speeds differ by
    up to 2x, so without rotation a whole run measures whichever vCPU it
    landed on. Other threads keep their affinity.
    """
    allowed = sorted(os.sched_getaffinity(0))
    deadline = time.perf_counter() + seconds
    try:
        for i in itertools.count(1):
            os.sched_setaffinity(0, {allowed[i % len(allowed)]})
            result = workload.step(state, rec)
            workload.check(state, result, tally)
            if i % workload.round_steps == 0 and time.perf_counter() >= deadline:
                return
    finally:
        os.sched_setaffinity(0, allowed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("fit", "eval", "score"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the smoke run only")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tck", "__init__.py")):
        print(f"tck sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from tracing import SETUP_SCOPE, Tracer, layer_metrics
    from workloads import SIZES, WORKLOADS, Tally

    workload = WORKLOADS[args.workload](SIZES[args.size])
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    tracer = Tracer() if args.trace else None
    tally = Tally()
    env = environment()
    try:
        setup_times = []
        while not setup_times or (tracer is None and (
                len(setup_times) < SETUPS or sum(setup_times) < MIN_SETUP_S)):
            k = len(setup_times)
            # Start each set-up on the next CPU (see measure) without pinning
            # it, so worker processes it starts may use every CPU.
            allowed = sorted(os.sched_getaffinity(0))
            os.sched_setaffinity(0, {allowed[k % len(allowed)]})
            os.sched_setaffinity(0, allowed)
            if tracer is not None:
                tracer.install()
                tracer.request = f"setup-{k}"
            start = time.perf_counter()
            state = workload.setup(args.seed, os.path.join(workdir, str(k)))
            setup_times.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.uninstall()
                tracer.request = None
            workload.check_setup(state, tally)

        # One untimed step lets lazy initialisation finish before timing.
        workload.check(state, workload.step(state, Recorder()), tally)
        if tracer is None:
            rec = Recorder()
            measure(workload, state, rec, args.seconds, tally)
        else:
            plain = Recorder()
            measure(workload, state, plain, args.seconds / 2, tally)
            tracer.install()
            rec = Recorder(tracer, first_request=plain.next_request)
            try:
                measure(workload, state, rec, args.seconds / 2, tally)
            finally:
                tracer.uninstall()
        accuracy, accuracies = workload.finish(state, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = rec if tracer is None else plain
    latency = untraced.samples[workload.latency_kind]
    p50 = statistics.median(latency)
    tail_value, tail_pct, beyond, windows = tail(latency)
    work = (untraced.units[workload.work_kind]
            / sum(untraced.samples[workload.work_kind]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "op_p50_ms": (p50 * 1e3, "ms"),
            "op_tail_ms": (tail_value * 1e3, "ms"),
            "work_per_s": (work, "1/s"),
            "accuracy": (accuracy, "fraction"),
        }
    else:
        n_ops = len(rec.requests)
        op_wall = rec.op_seconds / n_ops
        overhead = op_wall / (plain.op_seconds / len(plain.requests))
        metrics = layer_metrics(tracer.spans, set(rec.requests), n_ops,
                                {"setup-0"}, 1, op_wall, overhead)

    named = workload_named_metrics(args.workload, p50, tail_value, work, accuracies)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": env,
        "setup_s_samples": setup_times,
        "latency": {"kind": workload.latency_kind, "samples": len(latency),
                    "p50_s": p50, "tail_s": tail_value,
                    "tail_percentile": tail_pct, "tail_samples_beyond": beyond,
                    "tail_windows": windows},
        "named": named,
        "samples": {kind: list(zip(untraced.starts[kind], untraced.samples[kind]))
                    for kind in untraced.samples},
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_share": tally.failed / max(1, tally.attempted),
        "problems": tally.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(OUT, f"{tag}-spans.jsonl"))

    print(f"# environment: {json.dumps(env)}")
    print(f"# {workload.latency_kind}: n={len(latency)} p50={p50 * 1e3:.3f} ms "
          f"tail=p{tail_pct:.1f} {tail_value * 1e3:.3f} ms "
          f"({beyond} samples beyond, median of {windows} windows)")
    for name, (value, unit) in named.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# operations: attempted={tally.attempted} failed={tally.failed} "
          f"failed_share={record['failed_share']:.4f}")
    for problem in tally.problems:
        print(f"# check failed: {problem}")
    if tracer is not None:
        wall = metrics["trace.op_wall_s"][0]
        for name, (value, _) in metrics.items():
            if (name.endswith(".busy_s") and value > 0
                    and not name.startswith(SETUP_SCOPE)):
                print(f"# share of timed wall: {name} = {value / wall:.3f}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


def workload_named_metrics(name, p50, tail_value, work, accuracies):
    """The issue-level metric names, for the human-readable report."""
    if name == "fit":
        from tck.cli import VAR1_TARGETS
        named = {"fit_wall_s": (p50, "s"), "fit_models_per_s": (work, "1/s")}
        for variant, acc in accuracies.items():
            named[f"acc_{variant}"] = (acc, f"fraction (reference {VAR1_TARGETS[variant]})")
        return named
    if name == "eval":
        return {"eval_p50_s": (p50, "s"), "eval_tail_s": (tail_value, "s"),
                "acc_tck": (accuracies["tck"], "fraction")}
    return {"score1_p50_ms": (p50 * 1e3, "ms"), "score1_tail_ms": (tail_value * 1e3, "ms"),
            "score_bulk_series_per_s": (work, "1/s"),
            "acc_sstck_im": (accuracies["sstck_im"], "fraction")}


if __name__ == "__main__":
    sys.exit(main())
