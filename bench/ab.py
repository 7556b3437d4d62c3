"""Paired in-process timing of one operation in two checkouts of tck.

Run from anywhere:

    python3 bench/ab.py DIR_A DIR_B --op kernel_test1 --calls 1000
    python3 bench/ab.py DIR_A DIR_B --op kernel_test200 --calls 100 --record 19
    python3 bench/ab.py DIR_A DIR_B --op fit_replicate --calls 16
    python3 bench/ab.py DIR_A DIR_B --op setup_fit --calls 5
    python3 bench/ab.py DIR_A DIR_B --op eval --calls 20
    python3 bench/ab.py DIR_A DIR_B --op eval --calls 10 --memory

Each checkout's ``src/tck`` is imported under its own module name, and
DIR_A's a second time as the A/A control. The inputs are built once, from
the ``score`` benchmark's data shape: 200 training and 300 held-out VAR(1)
series (V=2, T=50) with MNAR missingness, standardized with the training
statistics. The operations:

* ``kernel_test<n>`` (``kernel_test1``, ``kernel_test200``, any n >= 1):
  ``kernel_test`` of n held-out series under the semi-supervised mixed-mode
  ensemble the ``score`` workload serves (Q=8 x 21 counts, 168 models);
  successive calls take successive batches of the held-out pool.
* ``train_q1``: ``train_ensemble`` with one restart of the 21 counts,
  Gaussian-only, ``n_jobs=1``.
* ``fit_replicate``: one step of the ``perfbench`` ``fit`` workload. It
  standardizes the raw training and test series; then, per mode, it runs a
  serial one-restart ``train_ensemble``, attaches the semi-supervised and
  supervised transforms, and runs KPCA, ``kernel_test`` and 1-NN for each
  of the three variants. The test set is the 200 held-out series that
  ``gen_var1`` draws with the training set.
* ``setup_fit``: the data of one ``perfbench`` ``fit`` set-up, whose time is
  that workload's ``setup_s``: 8 (train, test) pairs of ``gen_var1`` at 100
  series per class and T=50, each split through ``inject_var1_mnar``, seeded
  as ``perfbench``'s ``var1_pair`` seeds them; call i uses workload seed i.
  It compares the values, masks and labels of all 16 datasets.
* ``eval``: an in-process ``tck eval`` at the shape of the ``perfbench``
  ``eval`` workload, whose time is that workload's ``op_p50_ms``. In set-up,
  each checkout saves the raw training and test series as CSV and runs its
  own ``tck train --variant tck`` on them (Q=8 x 21 counts, 168 models);
  each call then evaluates the 200 test series against that run. It
  compares the bytes of ``metrics.csv`` and ``embedding_2d.csv``; the
  run's ``manifest.json`` names the checkout's own directories, so it is
  left out.

Each checkout builds its own ensemble from the shared data. The script sets
``OPENBLAS_NUM_THREADS=1`` for itself, then pins itself to each allowed CPU
in turn. On each CPU it warms the three subjects up and runs ``--calls``
rounds; a round calls A, B and the A/A copy on the same input, in an order
that reverses every round. Per CPU it reports the median of the paired
ratios B/A and A'/A, each with a 95% bootstrap interval over the rounds.
The A/A interval is this session's resolution: a B/A ratio inside it shows
no difference. A/A is not always centred on 1 (the checkout built first can
run 1-2 % slower, most clearly on sub-millisecond ops), so each line also
gives B/A divided by A'/A. An op whose A/A was seen to resolve nothing below a number
of calls (``MIN_CALLS``) warns when run with fewer. The script also checks
that A and B return the same bits. With one
BLAS thread and one worker, no op can show what a pool of workers costs
when each also starts its own BLAS threads; only the end-to-end benchmark
runs with the machine's default thread count.

``--memory`` adds one pass after the timed rounds, on the last CPU, with
``tracemalloc`` on: for each of ``--calls`` rounds it calls A, B and A' in
the same alternating order, and records each call's peak of traced memory
above what was traced when the call began (the peak is reset, after a
garbage collection, before each call). It prints the median peaks and the
paired ratios B/A and A'/A with the same bootstrap interval. The timed
rounds run untraced. tracemalloc sees Python's and numpy's allocations, not
the process's resident set, so it pairs a ``peak_rss_mb`` move with the
allocations behind it.

``--record N`` appends the result, with the commit and a hash of ``src/``
of both checkouts, to the runs in ``bench/AB_<N>.json``.

Use this script for a change to one layer whose effect is below the
benchmark's bounds or its run-to-run spread; use ``record.py`` for the
end-to-end metrics of ``perfbench/run.py``.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from record import machine, source  # noqa: E402

SEED = 0
RESAMPLES = 1000
# Calls below which an op's A/A interval was seen not to hold: fit_replicate's
# A'/A read 1.217 [0.732, 1.756] at 4 calls, 1.096 at 8 and 0.994/0.982 at 16.
# train_q1's A/A intervals all held 1 in three runs at 20 calls; at 40, on a
# host that ran the op 1.3-1.9x slower, two of six A'/A intervals did not.
# setup_fit's A'/A intervals missed 1 in five of six at 2 calls (0.928 [0.877,
# 0.979] to 1.133 [1.088, 1.179]); three runs each at 5 and 20 calls held it.
# eval: in three runs each, all six A'/A intervals held 1 at 5, 10, 20 and 40
# calls, but at 5 a same-tree B/A read 0.974 [0.883, 0.997]; at 10 all twelve
# held, some as wide as [0.734, 1.019], and at 20 the widest was [0.954, 1.035].
MIN_CALLS = {"fit_replicate": 16, "train_q1": 20, "setup_fit": 5, "eval": 10}
# As perfbench's fit workload: datasets per set-up, and its seed derivation.
FIT_DATASETS = 8


def derive_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence((seed, tag)).generate_state(1)[0])


def load_tck(root: str, name: str):
    """The package ``src/tck`` of the checkout ``root``, imported as ``name``."""
    package = os.path.join(os.path.abspath(root), "src", "tck")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"),
        submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def shared_inputs(tck, seed: int) -> dict:
    """Standardized training and held-out data and the partial labels, as
    plain fields, so that each checkout can wrap them in its own Dataset."""
    params = dataclasses.replace(tck.default_var1_params(), n_per_class=100,
                                 length=50)
    train, test = tck.gen_var1(params, seed)
    pool, _ = tck.gen_var1(dataclasses.replace(params, n_per_class=150), seed + 1)
    train = tck.inject_var1_mnar(train, seed=seed + 2)
    pool = tck.inject_var1_mnar(pool, seed=seed + 3)
    test = tck.inject_var1_mnar(test, seed=seed + 4)
    train_std, stats = tck.standardize(train)
    labels = np.zeros_like(train.labels)
    for c in np.unique(train.labels):               # 10 labelled per class
        labels[np.flatnonzero(train.labels == c)[:10]] = c
    fields = [f.name for f in dataclasses.fields(train_std)]
    return {"train": {f: getattr(train_std, f) for f in fields},
            "pool": {f: getattr(stats.apply(pool), f) for f in fields},
            "raw_train": {f: getattr(train, f) for f in fields},
            "raw_test": {f: getattr(test, f) for f in fields},
            "partial": tck.labels_to_onehot(labels, train.n_classes),
            "seed": seed}


def fit_replicate(tck, inputs: dict):
    """call(i) -> the test kernels and 1-NN predictions of one ``perfbench``
    ``fit`` step, in checkout ``tck``."""
    raw = tck.Dataset(**inputs["raw_train"])
    test = tck.Dataset(**inputs["raw_test"])

    def call(i):
        factories = (tck.make_semisupervised_factory(inputs["partial"], 0.1),
                     tck.make_supervised_factory(raw.one_hot()))
        train_std, stats = tck.standardize(raw)
        test_std = stats.apply(test)
        out = []
        for mode, tag in ((tck.GAUSSIAN_ONLY, 21), (tck.MIXED_MODE, 22)):
            cfg = tck.EnsembleConfig(n_init=1, seed=inputs["seed"] + tag, mode=mode)
            base = tck.train_ensemble(train_std, cfg, n_jobs=1)
            variants = [base] + [tck.apply_posterior_transform(base[0], f)
                                 for f in factories]
            for ens, kernel in variants:
                emb, projector = tck.kpca(kernel, d=10)
                kstar = tck.kernel_test(ens, test_std)
                preds = tck.knn_predict(emb.coords, raw.labels,
                                        projector.transform(kstar), k=1)
                out += [kstar.values.ravel(), preds.astype(float)]
        return np.concatenate(out)
    return call


def setup_fit(tck, inputs: dict):
    """call(i) -> the data of the ``perfbench`` ``fit`` set-up for workload
    seed i, in checkout ``tck``."""
    params = dataclasses.replace(tck.default_var1_params(), n_per_class=100,
                                 length=50)

    def call(i):
        out = []
        for r in range(FIT_DATASETS):
            data_seed = derive_seed(inputs["seed"] + i, 100 + r)
            train, test = tck.gen_var1(params, derive_seed(data_seed, 1))
            for data, tag in ((train, 2), (test, 3)):
                data = tck.inject_var1_mnar(data, seed=derive_seed(data_seed, tag))
                out += [data.values.ravel(), data.mask.ravel(), data.labels]
        return np.concatenate(out)
    return call


def eval_run(tck, inputs: dict):
    """call(i) -> the bytes of the files that ``tck eval`` writes against
    checkout ``tck``'s own ``tck train`` run, made here."""
    cli = importlib.import_module(tck.__name__ + ".cli")
    workdir = os.path.join(inputs["workdir"], tck.__name__)
    os.makedirs(workdir)
    paths = {}
    for split in ("train", "test"):
        paths[split] = [os.path.join(workdir, f"{split}{part}.csv")
                        for part in ("", "_labels")]
        tck.save_dataset(tck.Dataset(**inputs["raw_" + split]), *paths[split])
    train_dir, eval_dir = (os.path.join(workdir, name) for name in ("train", "eval"))
    if cli.main(["train", "--data", paths["train"][0], "--labels", paths["train"][1],
                 "--variant", "tck", "--q", "8",
                 "--threads", str(min(2, len(os.sched_getaffinity(0)))),
                 "--seed", str(inputs["seed"] + 21), "--out", train_dir]) != 0:
        raise SystemExit(f"{tck.__name__}: tck train failed")
    argv = ["eval", "--train-dir", train_dir, "--data", paths["test"][0],
            "--labels", paths["test"][1], "--out", eval_dir]

    def call(i):
        if cli.main(argv) != 0:
            raise SystemExit(f"{tck.__name__}: tck eval failed")
        return np.concatenate([np.fromfile(os.path.join(eval_dir, name), np.uint8)
                               for name in ("metrics.csv", "embedding_2d.csv")])
    return call


def subject(tck, op: str, inputs: dict):
    """call(i) -> the array of the op's i-th call, in checkout ``tck``."""
    if op == "fit_replicate":
        return fit_replicate(tck, inputs)
    if op == "setup_fit":
        return setup_fit(tck, inputs)
    if op == "eval":
        return eval_run(tck, inputs)
    train = tck.Dataset(**inputs["train"])
    if op == "train_q1":
        cfg = tck.EnsembleConfig(n_init=1, seed=inputs["seed"],
                                 mode=tck.GAUSSIAN_ONLY)
        return lambda i: tck.train_ensemble(train, cfg, n_jobs=1)[1].values
    n = int(re.fullmatch(r"kernel_test(\d+)", op).group(1))
    pool = tck.Dataset(**inputs["pool"])
    if not 1 <= n <= pool.n:
        raise SystemExit(f"{op}: the held-out pool has {pool.n} series")
    cfg = tck.EnsembleConfig(n_init=8, seed=inputs["seed"], mode=tck.MIXED_MODE)
    ens, _ = tck.train_ensemble(train, cfg,
                                n_jobs=min(2, len(os.sched_getaffinity(0))))
    ens, _ = tck.apply_posterior_transform(
        ens, tck.make_semisupervised_factory(inputs["partial"], 0.1))
    batches = [pool.take(np.arange(s, s + n)) for s in range(0, pool.n - n + 1, n)]
    return lambda i: tck.kernel_test(ens, batches[i % len(batches)]).values


def summary(ratios: np.ndarray, rng) -> dict:
    """Median of the paired ratios and its 95% bootstrap interval."""
    r = np.asarray(ratios)
    medians = np.median(r[rng.integers(0, len(r), (RESAMPLES, len(r)))], axis=1)
    lo, hi = np.percentile(medians, [2.5, 97.5])
    return {"median": float(np.median(r)), "ci95": [float(lo), float(hi)]}


def time_rounds(calls: list, rounds: int, cpu: int, rng) -> dict:
    """Per-CPU paired ratios of calls[1] (B) and calls[2] (A') to calls[0]."""
    os.sched_setaffinity(0, {cpu})
    for call in calls:
        call(0)
    times = np.empty((rounds, len(calls)))
    gc.collect()
    gc.disable()
    try:
        for i in range(rounds):
            order = range(len(calls)) if i % 2 == 0 else reversed(range(len(calls)))
            for k in order:
                start = time.perf_counter_ns()
                calls[k](i)
                times[i, k] = time.perf_counter_ns() - start
    finally:
        gc.enable()
    return {"a_median_ms": float(np.median(times[:, 0]) / 1e6),
            "b_median_ms": float(np.median(times[:, 1]) / 1e6),
            "b_over_a": summary(times[:, 1] / times[:, 0], rng),
            "a2_over_a": summary(times[:, 2] / times[:, 0], rng)}


def memory_rounds(calls: list, rounds: int, rng) -> dict:
    """Paired tracemalloc peaks of calls[1] (B) and calls[2] (A') to
    calls[0], each above the memory traced when its call began."""
    peaks = np.empty((rounds, len(calls)))
    tracemalloc.start()
    try:
        for i in range(rounds):
            order = range(len(calls)) if i % 2 == 0 else reversed(range(len(calls)))
            for k in order:
                gc.collect()
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                calls[k](i)
                peaks[i, k] = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return {"a_median_mb": float(np.median(peaks[:, 0]) / 2**20),
            "b_median_mb": float(np.median(peaks[:, 1]) / 2**20),
            "a2_median_mb": float(np.median(peaks[:, 2]) / 2**20),
            "b_over_a": summary(peaks[:, 1] / peaks[:, 0], rng),
            "a2_over_a": summary(peaks[:, 2] / peaks[:, 0], rng)}


def ratios(ab: dict, aa: dict) -> str:
    """B/A and A'/A with their intervals, and B/A divided by A'/A."""
    return (f"B/A {ab['median']:.3f} [{ab['ci95'][0]:.3f}, {ab['ci95'][1]:.3f}], "
            f"A'/A {aa['median']:.3f} [{aa['ci95'][0]:.3f}, {aa['ci95'][1]:.3f}], "
            f"(B/A)/(A'/A) {ab['median'] / aa['median']:.3f}")


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    parser.add_argument("--op", required=True,
                        help="kernel_test<n> (kernel_test1, kernel_test200, ...), "
                             "train_q1, fit_replicate, setup_fit or eval")
    parser.add_argument("--calls", type=int, required=True,
                        help="rounds per CPU; a round calls A, B and A' once")
    parser.add_argument("--memory", action="store_true",
                        help="after the timed rounds, pair each call's "
                             "tracemalloc peak")
    parser.add_argument("--record", type=int, metavar="N",
                        help="append the result to bench/AB_<N>.json")
    args = parser.parse_args(argv)
    if (args.op not in ("train_q1", "fit_replicate", "setup_fit", "eval")
            and not re.fullmatch(r"kernel_test[1-9]\d*", args.op)):
        parser.error(f"unknown --op {args.op!r}")
    if args.calls < 1:
        parser.error("--calls must be at least 1")
    if args.calls < MIN_CALLS.get(args.op, 0):
        print(f"warning: {args.op} needs at least {MIN_CALLS[args.op]} calls "
              f"for its A/A interval to hold; {args.calls} resolve little",
              file=sys.stderr)

    mods = [load_tck(args.dir_a, "tck_a"), load_tck(args.dir_b, "tck_b"),
            load_tck(args.dir_a, "tck_a2")]
    inputs = shared_inputs(mods[0], SEED)
    allowed = sorted(os.sched_getaffinity(0))
    rng = np.random.default_rng(SEED)
    with tempfile.TemporaryDirectory(prefix="ab_") as workdir:
        inputs["workdir"] = workdir
        calls = [subject(tck, args.op, inputs) for tck in mods]
        identical = all(np.array_equal(calls[0](i), calls[1](i)) for i in range(3))
        try:
            per_cpu = {cpu: time_rounds(calls, args.calls, cpu, rng)
                       for cpu in allowed}
            memory = memory_rounds(calls, args.calls, rng) if args.memory else None
        finally:
            os.sched_setaffinity(0, allowed)

    for cpu, r in per_cpu.items():
        print(f"{args.op} cpu {cpu}: A {r['a_median_ms']:.3f} ms, "
              f"B {r['b_median_ms']:.3f} ms, {ratios(r['b_over_a'], r['a2_over_a'])}")
    if memory is not None:
        print(f"{args.op} tracemalloc peak: A {memory['a_median_mb']:.3f} MB, "
              f"B {memory['b_median_mb']:.3f} MB, A' {memory['a2_median_mb']:.3f} MB, "
              f"{ratios(memory['b_over_a'], memory['a2_over_a'])}")
    print(f"{args.op}: A and B outputs {'identical' if identical else 'DIFFER'}")
    if args.record is not None:
        path = os.path.join(HERE, f"AB_{args.record}.json")
        record = {}
        if os.path.exists(path):
            with open(path) as fh:
                record = json.load(fh)
        record["machine"] = machine()
        record.setdefault("runs", []).append({
            "op": args.op, "a": source(os.path.abspath(args.dir_a)),
            "b": source(os.path.abspath(args.dir_b)),
            "calls_per_cpu": args.calls, "seed": SEED, "identical": identical,
            "median_b_over_a": statistics.median(
                r["b_over_a"]["median"] for r in per_cpu.values()),
            "per_cpu": {str(cpu): r for cpu, r in per_cpu.items()},
            "memory": memory})
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
