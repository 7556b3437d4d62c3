"""The benchmark's three workloads: fit, eval and score.

Each workload builds its inputs from the seed in ``setup`` (``tck.synth``
generates them and is not timed as a layer), runs one closed-loop step at a
time in ``step`` with a single client, and checks the program's outputs in
``check_setup``, ``check`` and ``finish``. Library functions are always
reached through the ``tck`` package or its modules at call time, so a tracer
that rebinds those names sees every call.
"""
from __future__ import annotations

import dataclasses
import hashlib
import os

import numpy as np

import tck
import tck.cli

MIXED = tck.MIXED_MODE
GAUSSIAN = tck.GAUSSIAN_ONLY


@dataclasses.dataclass(frozen=True)
class Size:
    n_per_class: int          # train and test series per class (VAR(1) table)
    length: int               # T
    components: tuple | None  # None: the library's 21-count grid
    fit_q: int                # restarts per component count in `fit`
    serve_q: int              # restarts of the ensembles `eval` and `score` serve
    pool_per_class: int       # held-out series per class in each bulk batch
    singles_per_cycle: int    # single-series requests before each bulk request


SIZES = {
    # Paper data shape: 200 + 200 series, V=2, T=50, 21 component counts.
    "full": Size(n_per_class=100, length=50, components=None, fit_q=1,
                 serve_q=8, pool_per_class=150, singles_per_cycle=8),
    "tiny": Size(n_per_class=15, length=20, components=(2, 3, 4), fit_q=1,
                 serve_q=2, pool_per_class=10, singles_per_cycle=2),
}


def derive_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence((seed, tag)).generate_state(1)[0])


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def var1_pair(size: Size, seed: int, n_per_class: int):
    """(train, test) VAR(1) datasets with the paper's MNAR missingness."""
    params = dataclasses.replace(tck.default_var1_params(),
                                 n_per_class=n_per_class, length=size.length)
    train, test = tck.gen_var1(params, derive_seed(seed, 1))
    return (tck.inject_var1_mnar(train, seed=derive_seed(seed, 2)),
            tck.inject_var1_mnar(test, seed=derive_seed(seed, 3)))


def partial_onehot(train, seed: int):
    count = max(20, 3 * train.n_classes)
    labels = tck.cli.stratified_label_subset(train.labels, count, derive_seed(seed, 4))
    return tck.labels_to_onehot(labels, train.n_classes)


# ------------------------------------------------------------
# Output checks; each returns a list of problems, empty when all hold
# ------------------------------------------------------------

def check_train_kernel(values: np.ndarray, model_count: int, what: str) -> list:
    problems = []
    if not np.array_equal(values, values.T):
        problems.append(f"{what}: train kernel is not exactly symmetric")
    if not np.all(np.diag(values) == model_count):
        problems.append(f"{what}: train kernel diagonal differs from {model_count}")
    eig = np.linalg.eigvalsh(values)
    if eig[0] < -1e-9 * max(1.0, eig[-1]):
        problems.append(f"{what}: train kernel not PSD (min eigenvalue {eig[0]:.3g})")
    return problems


def check_test_kernel(values: np.ndarray, model_count: int, what: str) -> list:
    slack = 1e-9 * max(1, model_count)
    if values.min() < 0 or values.max() > model_count + slack:
        return [f"{what}: test kernel entries outside [0, {model_count}]"]
    return []


def check_simplex(posteriors, what: str) -> list:
    for i, post in enumerate(posteriors):
        if post.min() < 0 or not np.allclose(post.sum(axis=1), 1.0, rtol=0, atol=1e-12):
            return [f"{what}: E-step rows of model {i} are not on the simplex"]
    return []


class Tally:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, attempted: int, problems=(), failed: int | None = None):
        """Count ``attempted`` operations; ``failed`` defaults to one per problem."""
        self.attempted += attempted
        self.failed += len(problems) if failed is None else failed
        self.problems.extend(problems[:max(0, 20 - len(self.problems))])

    def models(self, ens):
        self.add(ens.model_count + len(ens.failed), failed=len(ens.failed))


# ------------------------------------------------------------
# fit: one replicate of the VAR(1) table, serial
# ------------------------------------------------------------

VARIANTS = ("tck", "sstck", "stck", "tck_im", "sstck_im", "stck_im")
FIT_DATASETS = 8


class Fit:
    """Six-variant VAR(1) replicate; ``train_ensemble`` runs with n_jobs=1.

    Steps cycle over ``FIT_DATASETS`` datasets drawn from the seed, so a run's
    median and accuracy do not hang on the EM behaviour of a single draw.
    """

    latency_kind = "replicate"
    work_kind = "train_ensemble"
    round_steps = FIT_DATASETS

    def __init__(self, size: Size):
        self.size = size

    def setup(self, seed: int, workdir: str):
        datasets = []
        for r in range(FIT_DATASETS):
            data_seed = derive_seed(seed, 100 + r)
            train, test = var1_pair(self.size, data_seed, self.size.n_per_class)
            datasets.append({"seed": data_seed, "train": train, "test": test,
                             "full": train.one_hot(),
                             "partial": partial_onehot(train, data_seed)})
        return {"datasets": datasets, "next": 0, "accuracies": {}}

    def check_setup(self, st, tally):
        pass

    def step(self, st, rec):
        r = st["next"] % FIT_DATASETS
        st["next"] += 1
        return r, self.replicate(st["datasets"][r], rec)

    def replicate(self, ds, rec):
        out = {}
        with rec.op("replicate"):
            train_std, stats = tck.standardize(ds["train"])
            test_std = stats.apply(ds["test"])
            for mode, family, tag in ((GAUSSIAN, "tck", 21), (MIXED, "tck_im", 22)):
                cfg = tck.EnsembleConfig(n_init=self.size.fit_q,
                                         component_counts=self.size.components,
                                         seed=derive_seed(ds["seed"], tag), mode=mode)
                with rec.section("train_ensemble") as sec:
                    ens, kernel = tck.train_ensemble(train_std, cfg, n_jobs=1)
                    sec.units = ens.model_count + len(ens.failed)
                ss = tck.apply_posterior_transform(
                    ens, tck.make_semisupervised_factory(ds["partial"], 0.1))
                sup = tck.apply_posterior_transform(
                    ens, tck.make_supervised_factory(ds["full"]))
                for name, (e, k) in ((family, (ens, kernel)),
                                     ("ss" + family, ss), ("s" + family, sup)):
                    emb, projector = tck.kpca(k, d=10)
                    kstar = tck.kernel_test(e, test_std)
                    preds = tck.knn_predict(emb.coords, ds["train"].labels,
                                            projector.transform(kstar), k=1)
                    out[name] = (e, k, kstar, float((preds == ds["test"].labels).mean()))
        return out

    def check(self, st, result, tally):
        r, out = result
        problems = []
        for name, (ens, kernel, kstar, _) in out.items():
            problems += check_train_kernel(kernel.values, kernel.model_count, name)
            problems += check_test_kernel(kstar.values, kstar.model_count, name)
        for family in ("tck", "tck_im"):
            ens = out[family][0]
            tally.models(ens)
            problems += check_simplex(ens.posteriors, family)
        accuracies = {name: out[name][3] for name in VARIANTS}
        if st["accuracies"].setdefault(r, accuracies) != accuracies:
            problems.append(f"dataset {r}: replicate accuracies differ between repeats")
        tally.add(1, problems, failed=int(bool(problems)))

    def finish(self, st, tally):
        acc = {v: float(np.mean([st["accuracies"][r][v] for r in range(FIT_DATASETS)]))
               for v in VARIANTS}
        return float(np.mean(list(acc.values()))), acc


# ------------------------------------------------------------
# eval: repeated `tck eval` against a trained run, in-process
# ------------------------------------------------------------

EVAL_OUTPUTS = ("metrics.csv", "embedding_2d.csv")


class Eval:
    """``tck.cli.main(["eval", ...])`` against a `tck train --variant tck` run."""

    latency_kind = "eval"
    work_kind = "eval"
    round_steps = 1

    def __init__(self, size: Size):
        self.size = size

    def setup(self, seed: int, workdir: str):
        os.makedirs(workdir, exist_ok=True)
        train, test = var1_pair(self.size, seed, self.size.n_per_class)
        paths = {}
        for split, ds in (("train", train), ("test", test)):
            paths[split] = os.path.join(workdir, f"{split}.csv")
            paths[split + "_labels"] = os.path.join(workdir, f"{split}_labels.csv")
            tck.save_dataset(ds, paths[split], paths[split + "_labels"])
        train_dir = os.path.join(workdir, "train")
        argv = ["train", "--data", paths["train"], "--labels", paths["train_labels"],
                "--variant", "tck", "--q", str(self.size.serve_q),
                "--threads", str(nproc()), "--seed", str(derive_seed(seed, 21)),
                "--out", train_dir]
        if self.size.components is not None:
            argv += ["--components", ",".join(map(str, self.size.components))]
        if tck.cli.main(argv) != 0:
            raise RuntimeError("tck train failed in set-up")
        eval_argv = ["eval", "--train-dir", train_dir, "--data", paths["test"],
                     "--labels", paths["test_labels"],
                     "--out", os.path.join(workdir, "eval")]
        return {"paths": paths, "train_dir": train_dir, "eval_argv": eval_argv,
                "eval_dir": os.path.join(workdir, "eval"), "digest": None}

    def check_setup(self, st, tally):
        ens = tck.load_ensemble(os.path.join(st["train_dir"], "ensemble"))
        kernel = tck.load_kernel(os.path.join(st["train_dir"], "kernel_train.csv"))
        tally.models(ens)
        problems = check_train_kernel(kernel.values, kernel.model_count, "tck train")
        problems += check_simplex(ens.posteriors, "tck train")
        tally.add(1, problems, failed=int(bool(problems)))

    def step(self, st, rec):
        with rec.op("eval", units=2 * self.size.n_per_class):
            code = tck.cli.main(st["eval_argv"])
        return code

    def check(self, st, code, tally):
        problems = []
        if code != 0:
            problems.append(f"tck eval exited with {code}")
        else:
            digest = hashlib.sha256()
            for name in EVAL_OUTPUTS:
                with open(os.path.join(st["eval_dir"], name), "rb") as fh:
                    digest.update(fh.read())
            if st["digest"] is None:
                st["digest"] = digest.hexdigest()
            elif digest.hexdigest() != st["digest"]:
                problems.append("eval outputs differ from the first call's bytes")
        tally.add(1, problems, failed=int(bool(problems)))

    def finish(self, st, tally):
        paths = st["paths"]
        train = tck.load_dataset(paths["train"], paths["train_labels"])
        test = tck.load_dataset(paths["test"], paths["test_labels"])
        _, stats = tck.standardize(train)
        ens = tck.load_ensemble(os.path.join(st["train_dir"], "ensemble"))
        kstar = tck.kernel_test(ens, tck.cli.prepare_eval_data(test, "tck", stats))
        problems = check_test_kernel(kstar.values, kstar.model_count, "tck eval")
        tally.add(1, problems, failed=int(bool(problems)))
        with open(os.path.join(st["eval_dir"], "metrics.csv")) as fh:
            rows = dict(line.strip().split(",") for line in fh.readlines()[1:])
        accuracy = float(rows["accuracy"])
        return accuracy, {"tck": accuracy}


# ------------------------------------------------------------
# score: in-memory sstck_im ensemble serving single and bulk requests
# ------------------------------------------------------------

class Score:
    """Single-series requests interleaved with bulk requests of held-out series."""

    latency_kind = "single"
    work_kind = "bulk"
    round_steps = 2   # one cycle per bulk batch

    def __init__(self, size: Size):
        self.size = size

    def setup(self, seed: int, workdir: str):
        train, _ = var1_pair(self.size, seed, self.size.n_per_class)
        # Two bulk batches of held-out series, from independent seeds.
        batches = var1_pair(self.size, derive_seed(seed, 5), self.size.pool_per_class)
        train_std, stats = tck.standardize(train)
        batches = [stats.apply(b) for b in batches]
        cfg = tck.EnsembleConfig(n_init=self.size.serve_q,
                                 component_counts=self.size.components,
                                 seed=derive_seed(seed, 22), mode=MIXED)
        ens, _ = tck.train_ensemble(train_std, cfg, n_jobs=nproc())
        ss_ens, ss_kernel = tck.apply_posterior_transform(
            ens, tck.make_semisupervised_factory(partial_onehot(train, seed), 0.1))
        embedding, projector = tck.kpca(ss_kernel, d=10)
        singles = [(b, j, batch.take([j])) for b, batch in enumerate(batches)
                   for j in range(batch.n)]
        return {"ens": ss_ens, "kernel": ss_kernel, "embedding": embedding,
                "projector": projector, "labels": train.labels,
                "batches": batches, "singles": singles, "cycle": 0,
                "next_single": 0, "single_results": {}, "bulk_results": {}}

    def check_setup(self, st, tally):
        tally.models(st["ens"])
        problems = check_train_kernel(st["kernel"].values, st["kernel"].model_count,
                                      "sstck_im")
        problems += check_simplex(st["ens"].posteriors, "sstck_im")
        tally.add(1, problems, failed=int(bool(problems)))

    def _score(self, st, data):
        kstar = tck.kernel_test(st["ens"], data)
        coords = st["projector"].transform(kstar)
        return kstar, coords, tck.knn_predict(st["embedding"].coords, st["labels"],
                                              coords, k=1)

    def step(self, st, rec):
        results = []
        singles = st["singles"]
        for _ in range(self.size.singles_per_cycle):
            # a stride coprime to the pool size visits both batches
            b, j, data = singles[(st["next_single"] * 7) % len(singles)]
            st["next_single"] += 1
            with rec.op("single"):
                res = self._score(st, data)
            results.append(("single_results", (b, j), res))
        b = st["cycle"] % len(st["batches"])
        st["cycle"] += 1
        with rec.op("bulk", units=st["batches"][b].n):
            res = self._score(st, st["batches"][b])
        results.append(("bulk_results", b, res))
        return results

    def check(self, st, results, tally):
        m = st["ens"].model_count
        for store, key, (kstar, coords, preds) in results:
            problems = check_test_kernel(kstar.values, m, f"score request {key}")
            st[store].setdefault(key, (kstar.values, coords, preds))
            tally.add(1, problems, failed=int(bool(problems)))

    def finish(self, st, tally):
        # A single-series request must match its column of the bulk request.
        bulk = st["bulk_results"]
        mismatched = []
        for (b, j), (kstar, coords, preds) in st["single_results"].items():
            bk, bc, bp = bulk[b]
            if not (np.allclose(kstar[:, 0], bk[:, j], rtol=1e-12, atol=1e-9)
                    and np.allclose(coords[0], bc[j], rtol=1e-9, atol=1e-9)
                    and preds[0] == bp[j]):
                mismatched.append(f"single request ({b}, {j}) differs from bulk")
        # the requests were already counted; a mismatch turns one into a failure
        tally.add(0, mismatched)
        truth = [batch.labels for batch in st["batches"]]
        preds = [bulk[b][2] for b in range(len(st["batches"]))]
        accuracy = float((np.concatenate(preds) == np.concatenate(truth)).mean())
        return accuracy, {"sstck_im": accuracy}


WORKLOADS = {"fit": Fit, "eval": Eval, "score": Score}
