"""Record the paper configuration's costs, fit reports and accuracies of one
or more checkouts.

Run from the repository root:

    python3 bench/paper.py 20                           # this checkout
    python3 bench/paper.py 20 /path/to/parent=19        # and another one

Each argument is ``[DIR=]N``, as for ``record.py``: the checkout in DIR
(default: this repository) is recorded as ``bench/PAPER_<N>.json`` here.
Each checkout runs in its own process with its ``src`` first on
PYTHONPATH, on the data of ``reproduce`` seed 0 as
``tck.experiment.var1_data`` builds it: 200 training and 200 test VAR(1)
series (V=2, T=50) with MNAR missingness, standardized with the training
statistics. A checkout must have ``tck.experiment`` (commit 9963c18 or
later). Per family of ``tck.experiment`` (``tck``, Gaussian-only;
``tck_im``, mixed-mode), it fits the ensemble ``reproduce`` fits, through
``tck.experiment.fit_family``, and records:

* the wall time of ``fit_family`` at the paper configuration (Q=30
  restarts x 21 component counts = 630 base models), serial and with
  ``n_jobs=2``; it includes building the family's label transform
  factories, which takes no fit;
* from the serial run, the fits whose ``FitReport`` says ``converged=False``,
  the fits that ran all ``em_max_iter`` sweeps and the mean sweep count
  over all fits;
* the median of five calls each of ``kernel_test`` on the 200 test series,
  KPCA (d=10), 1-NN and the ensemble's save and load.

It also records the six accuracies and the wall time of
``reproduce_var1(seed=0, replicates=1, n_jobs=2)``. Every time is one
process's wall clock on a shared machine; a checkout takes about a minute
on 2 vCPUs. Use ``record.py`` for the benchmark's end-to-end metrics and
``ab.py`` for paired timings of one operation.
"""
from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 0
REPEATS = 5


def timed(call, repeats: int = 1):
    """(median wall seconds over ``repeats`` calls, the last call's result)."""
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        seconds.append(time.perf_counter() - start)
    return statistics.median(seconds), result


def fit_reports(fit):
    """(seconds, result, reports) of ``fit()``, with the report of every fit
    that ``tck.ensemble.fit_map_em`` returned during it."""
    import tck.ensemble as ens_mod
    original, reports = ens_mod.fit_map_em, []

    def recording(*args, **kwargs):
        params, report = original(*args, **kwargs)
        reports.append(report)
        return params, report

    ens_mod.fit_map_em = recording
    try:
        seconds, fitted = timed(fit)
    finally:
        ens_mod.fit_map_em = original
    return seconds, fitted, reports


def convergence(reports: list, max_iter: int) -> dict:
    """Fits not converged, fits at the sweep cap and the mean sweep count."""
    sweeps = [len(r.objectives) for r in reports]
    return {"fits": len(reports),
            "not_converged": sum(not r.converged for r in reports),
            "at_max_iter": sum(n == max_iter for n in sweeps),
            "mean_iterations": statistics.fmean(sweeps)}


def measure() -> dict:
    """This process's ``tck`` at the paper configuration, per mode."""
    from tck import (kernel_test, knn_predict, kpca, load_ensemble,
                     save_ensemble)
    from tck.experiment import (_FAMILY_TAGS, fit_family, reproduce_var1,
                                var1_data)

    data = var1_data(SEED)
    train, test_std = data.train, data.test_std

    modes = {}
    for name in _FAMILY_TAGS:
        serial_s, (ens, kernel, _), reports = fit_reports(
            lambda: fit_family(data, name, n_jobs=1))
        pooled_s, _ = timed(lambda: fit_family(data, name, n_jobs=2))
        test_s, kstar = timed(lambda: kernel_test(ens, test_std), REPEATS)
        kpca_s, (embedding, projector) = timed(lambda: kpca(kernel, d=10), REPEATS)
        coords = projector.transform(kstar)
        knn_s, _ = timed(lambda: knn_predict(embedding.coords, train.labels,
                                             coords, k=1), REPEATS)
        with tempfile.TemporaryDirectory() as directory:
            save_s, _ = timed(lambda: save_ensemble(ens, directory), REPEATS)
            load_s, _ = timed(lambda: load_ensemble(directory), REPEATS)
        modes[name] = {
            "failed": len(ens.failed),
            "train_serial_s": serial_s, "train_n_jobs_2_s": pooled_s,
            **convergence(reports, ens.config.em_max_iter),
            "kernel_test_200_s": test_s, "kpca_s": kpca_s, "knn_1_s": knn_s,
            "save_s": save_s, "load_s": load_s}
    reproduce_s, report = timed(lambda: reproduce_var1(seed=SEED, replicates=1,
                                                       n_jobs=2))
    return {"modes": modes,
            "reproduce": {"seconds": reproduce_s,
                          "accuracies": report["accuracies"]}}


def run(root: str) -> dict:
    """``measure()`` in a process that imports the ``tck`` of ``root``."""
    path = os.path.join(root, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (path, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--measure"],
                          cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list) -> int:
    if argv == ["--measure"]:
        print(json.dumps(measure()))
        return 0
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from record import machine, source

    host = machine()
    for arg in argv:
        root, _, number = arg.rpartition("=")
        root = os.path.abspath(root or ROOT)
        contents = {"number": int(number), **source(root), "machine": host,
                    "command": "bench/paper.py", "seed": SEED, **run(root)}
        for name, mode in contents["modes"].items():
            print(f"# {number} {name}: {json.dumps(mode)}", file=sys.stderr)
        with open(os.path.join(HERE, f"PAPER_{number}.json"), "w") as fh:
            json.dump(contents, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
