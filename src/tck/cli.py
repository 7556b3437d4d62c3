"""Command-line front end: generate / train / eval / reproduce.

``main`` runs every command. Each option's default is written once, in its
argparse definition; a ``--config`` JSON file overrides the defaults of the
chosen command and flags override both. ``main`` creates the output
directory and writes ``manifest.json`` from what the ``cmd_*`` handler
returns: the resolved configuration and the files it wrote. Identical
invocations produce identical bytes.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import data as dt
from .data import Dataset, StandardizationStats
from .ensemble import (EnsembleConfig, _load_array, _load_json_object,
                       apply_posterior_transform, kernel_test, load_ensemble,
                       save_ensemble, save_kernel, train_ensemble)
from .evaluation import (classification_metrics, kfold_evaluate, knn_predict,
                         kpca, select_k)
from .mixture import GAUSSIAN_ONLY, MIXED_MODE
from .synth import (default_var1_params, gen_var1, inject_rate_mar,
                    inject_rate_mnar, inject_var1_mnar, tune_informativeness)
from .transform import make_semisupervised_factory, make_supervised_factory

# variant -> (component mode, transform kind, data preparation)
VARIANTS = {
    "tck": (GAUSSIAN_ONLY, None, None),
    "sstck": (GAUSSIAN_ONLY, "semisupervised", None),
    "stck": (GAUSSIAN_ONLY, "supervised", None),
    "tck_im": (MIXED_MODE, None, None),
    "sstck_im": (MIXED_MODE, "semisupervised", None),
    "stck_im": (MIXED_MODE, "supervised", None),
    "tck_b": (GAUSSIAN_ONLY, None, "concat_mask"),
    "tck_0": (GAUSSIAN_ONLY, None, "zero_impute"),
}

VAR1_TARGETS = {
    "tck": 0.826, "sstck": 0.854, "stck": 0.867,
    "tck_im": 0.933, "sstck_im": 0.967, "stck_im": 0.970,
}
VAR1_ACCURACY_TOL = 0.05
VAR1_ORDERING_SLACK = 0.02


def _derive_seed(master: int, tag: int) -> int:
    return int(np.random.SeedSequence((master, tag)).generate_state(1)[0])


def _write_manifest(out_dir: str, command: str, resolved: dict, outputs: list) -> None:
    manifest = {"command": command, "config": resolved, "outputs": outputs}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)


def _parse_k(value):
    if value == "cv":
        return "cv"
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"--k must be an integer or 'cv'; got {value!r}") from None


def _ensemble_size(args) -> tuple:
    """(--q, --components as a tuple or None), checked before any fit."""
    if args.q < 1:
        raise ValueError(f"--q must be at least 1; got {args.q}")
    if args.components is None:
        return args.q, None
    text = args.components.strip()
    lo, dots, hi = text.partition("..")
    try:
        counts = (tuple(range(int(lo), int(hi) + 1)) if dots
                  else tuple(int(x) for x in text.split(",")))
    except ValueError:
        raise ValueError(f"--components {text} is not 'lo..hi' or a comma-"
                         f"separated list of integers") from None
    if not counts:
        raise ValueError(f"--components {text} gives no component count")
    if min(counts) < 1:
        raise ValueError(f"--components must be at least 1; got {text}")
    return args.q, counts


def stratified_label_subset(labels: np.ndarray, n_labeled: int,
                            seed: int) -> np.ndarray:
    """Keep labels for a stratified random subset; zero out the rest."""
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 31)))
    classes = np.unique(labels[labels > 0])
    n_labeled = min(n_labeled, int((labels > 0).sum()))
    counts = np.array([(labels == c).sum() for c in classes])
    quotas = np.maximum(np.floor(n_labeled * counts / counts.sum()).astype(int), 1)
    remainders = n_labeled * counts / counts.sum() - quotas
    while quotas.sum() < n_labeled:
        quotas[int(np.argmax(remainders))] += 1
        remainders[int(np.argmax(remainders))] = -1
    while quotas.sum() > n_labeled:
        quotas[int(np.argmax(quotas))] -= 1
    out = np.zeros_like(labels)
    for c, quota in zip(classes, quotas):
        idx = np.nonzero(labels == c)[0]
        chosen = rng.choice(idx, size=min(quota, len(idx)), replace=False)
        out[chosen] = c
    return out


# ------------------------------------------------------------
# Variant-specific preprocessing
# ------------------------------------------------------------

def prepare_training_data(data: Dataset, variant: str):
    """(prepared dataset, standardization stats) for a kernel variant: the
    statistics of its training attributes, applied as to held-out data."""
    _, _, prep = VARIANTS[variant]
    stats = dt.standardize(dt.concat_mask(data) if prep == "concat_mask" else data)[1]
    return prepare_eval_data(data, variant, stats), stats


def prepare_eval_data(data: Dataset, variant: str,
                      stats: StandardizationStats) -> Dataset:
    """Apply training statistics to held-out data, matching the variant."""
    _, _, prep = VARIANTS[variant]
    if prep == "concat_mask":
        data = dt.concat_mask(data)
    prepared = stats.apply(data)
    if prep == "zero_impute":
        prepared = dt.zero_impute(prepared)
    return prepared


def _transform_factory(variant: str, train: Dataset, h: float,
                       n_labeled: int | None, seed: int):
    """The variant's per-model label transform factory, or None. Its label
    options are checked here, so that bad ones fail before any fit."""
    _, kind, _ = VARIANTS[variant]
    if kind is None:
        return None
    if train.labels is None or not (train.labels > 0).any():
        raise ValueError(f"variant {variant} needs labels")
    if kind == "supervised":
        if (train.labels == 0).any():
            raise ValueError("supervised variants need a label for every series")
        return make_supervised_factory(train.one_hot())
    if not 0.0 < h < 1.0:
        raise ValueError(f"--h must lie in (0, 1) for variant {variant}; got {h}")
    count = n_labeled if n_labeled is not None else max(20, 3 * train.n_classes)
    if count < train.n_classes:
        raise ValueError(f"--n-labeled must be at least the number of classes "
                         f"({train.n_classes}), so that every class has a "
                         f"labeled series; got {count}")
    partial = stratified_label_subset(train.labels, count, seed)
    onehot = dt.labels_to_onehot(partial, train.n_classes)
    return make_semisupervised_factory(onehot, h)


def _variant_kernels(variants, train: Dataset, cfg: EnsembleConfig, h: float,
                     n_labeled: int | None, label_seed: int,
                     n_jobs: int) -> list:
    """(ensemble, train kernel) per variant of cfg's component family, from
    one fit of the base ensemble. The label transforms are built, and their
    options checked, before the fit."""
    factories = [_transform_factory(v, train, h, n_labeled, label_seed)
                 for v in variants]
    fewest = min(cfg.component_counts or (train.n_classes,))
    if fewest < train.n_classes and any(f is not None for f in factories):
        raise ValueError(f"--components must be at least the number of classes "
                         f"({train.n_classes}) for a label-transformed variant; "
                         f"got {fewest}")
    fitted = train_ensemble(train, cfg, n_jobs=n_jobs)
    return [fitted if f is None else apply_posterior_transform(fitted[0], f)
            for f in factories]


def _stats_to_dict(stats: StandardizationStats) -> dict:
    return {"mean": stats.mean.tolist(), "std": stats.std.tolist()}


def _stats_from_dict(d: dict) -> StandardizationStats:
    return StandardizationStats(np.asarray(d["mean"]), np.asarray(d["std"]))


# ------------------------------------------------------------
# generate
# ------------------------------------------------------------

def cmd_generate(args, out_dir: str):
    seed = args.seed
    outputs = []
    resolved = {"recipe": args.recipe, "seed": seed}

    if args.recipe == "var1":
        params = default_var1_params()
        train, test = gen_var1(params, seed)
        info = {"generator": {
            "length": params.length,
            "n_per_class": params.n_per_class,
            "classes": [{"cross_corr": c.cross_corr, "ar": list(c.ar),
                         "mean": list(c.mean),
                         "intercept": c.intercept.tolist()}
                        for c in params.classes]}}
        if not args.no_missing:
            train, rep_tr = inject_var1_mnar(train, seed=_derive_seed(seed, 11),
                                             return_report=True)
            test, rep_te = inject_var1_mnar(test, seed=_derive_seed(seed, 12),
                                            return_report=True)
            info["missing_fraction_train"] = rep_tr.missing_fraction
            info["missing_fraction_test"] = rep_te.missing_fraction
        for name, ds in (("train", train), ("test", test)):
            files = [f"{name}.csv", f"{name}_labels.csv"]
            dt.save_dataset(ds, *(os.path.join(out_dir, f) for f in files))
            outputs += files
        resolved.update({"no_missing": bool(args.no_missing), **info})
    else:
        if not args.data or not args.labels:
            raise ValueError(f"recipe {args.recipe} requires --data and --labels")
        if (args.strength is None) == (args.target_corr is None):
            raise ValueError("give exactly one of --strength and --target-corr")
        base = dt.load_dataset(args.data, args.labels)
        strength = args.strength
        if strength is None:
            strength = tune_informativeness(base, args.recipe, args.target_corr,
                                            seed=_derive_seed(seed, 21))
        injector = inject_rate_mar if args.recipe == "rate_mar" else inject_rate_mnar
        injected, report = injector(base, strength, seed=_derive_seed(seed, 22))
        dt.save_dataset(injected, os.path.join(out_dir, "injected.csv"),
                        os.path.join(out_dir, "injected_labels.csv"))
        outputs += ["injected.csv", "injected_labels.csv"]
        resolved.update({
            "strength": strength,
            "target_corr": args.target_corr,
            "missing_fraction": report.missing_fraction,
            "directions": report.directions.tolist(),
        })
    return resolved, outputs


# ------------------------------------------------------------
# train
# ------------------------------------------------------------

def _build_config(args, seed: int) -> EnsembleConfig:
    n_init, counts = _ensemble_size(args)
    return EnsembleConfig(n_init=n_init, component_counts=counts,
                          t_min=args.t_min, seed=seed,
                          mode=VARIANTS[args.variant][0],
                          normalize_by_models=args.normalize)


def cmd_train(args, out_dir: str):
    raw = dt.load_dataset(args.data, args.labels)
    prepared, stats = prepare_training_data(raw, args.variant)
    cfg = _build_config(args, args.seed)
    [(ens, kernel)] = _variant_kernels([args.variant], prepared, cfg, args.h,
                                       args.n_labeled, args.seed, args.threads)
    save_ensemble(ens, os.path.join(out_dir, "ensemble"))
    save_kernel(kernel, os.path.join(out_dir, "kernel_train.csv"))
    np.save(os.path.join(out_dir, "kernel_train.npy"), kernel.values)
    resolved = {
        "variant": args.variant,
        "data": os.path.abspath(args.data),
        "labels": None if args.labels is None else os.path.abspath(args.labels),
        "seed": args.seed,
        "h": args.h,
        "n_labeled": args.n_labeled,
        "ensemble": {"n_init": cfg.n_init,
                     "component_counts": list(ens.config.component_counts),
                     "mode": cfg.mode},
        "standardization": _stats_to_dict(stats),
        "train_labels": None if raw.labels is None else raw.labels.tolist(),
        "model_count": kernel.model_count,
        "failed_models": len(ens.failed),
    }
    return resolved, ["ensemble", "kernel_train.csv", "kernel_train.npy"]


# ------------------------------------------------------------
# eval
# ------------------------------------------------------------

def _embed_and_classify(kernel_train, ens, test_prepared, train_labels,
                        dim: int, k, seed: int = 0):
    """k may be an integer or 'cv' (5-fold selection from {1,3,5,7,9})."""
    embedding, projector = kpca(kernel_train, d=dim)
    kstar = kernel_test(ens, test_prepared)
    test_coords = projector.transform(kstar)
    if k == "cv":
        k = select_k(embedding.coords, train_labels, seed=seed)
    preds = knn_predict(embedding.coords, train_labels, test_coords, k=int(k))
    return embedding, test_coords, preds


def _write_embedding_csv(path, embedding_coords, labels, ids, roles) -> None:
    with open(path, "w") as fh:
        fh.write("role,series_id,label,pc1,pc2\n")
        for role, sid, label, row in zip(roles, ids, labels, embedding_coords):
            pc2 = row[1] if len(row) > 1 else 0.0
            fh.write(f"{role},{sid},{label},{row[0]:.17g},{pc2:.17g}\n")


def cmd_eval(args, out_dir: str):
    if args.folds:
        return _eval_cross_validated(args, out_dir)
    if not args.train_dir:
        raise ValueError("--train-dir is required (output directory of `train`)")
    path = os.path.join(args.train_dir, "manifest.json")
    train_manifest = _load_json_object(path)
    try:
        config = train_manifest["config"]
        variant, stored = config["variant"], config["train_labels"]
        stats = _stats_from_dict(config["standardization"])
    except KeyError as exc:
        raise ValueError(f"{path} has no {exc} key; --train-dir must be an "
                         f"output directory of `tck train`") from None
    if stored is None:
        raise ValueError("training run had no labels; cannot classify")
    train_labels = np.asarray(stored, dtype=np.int64)
    ens = load_ensemble(os.path.join(args.train_dir, "ensemble"))
    if ens.n_series != len(train_labels):
        raise ValueError(f"{path} stores {len(train_labels)} train labels but "
                         f"the ensemble was trained on {ens.n_series} series")
    kernel_train = _load_array(args.train_dir, "kernel_train.npy",
                               (ens.n_series, ens.n_series))

    test_raw = dt.load_dataset(args.data, args.labels)
    test_prepared = prepare_eval_data(test_raw, variant, stats)
    embedding, test_coords, preds = _embed_and_classify(
        kernel_train, ens, test_prepared, train_labels, args.dim,
        _parse_k(args.k), seed=args.seed)

    outputs = ["embedding_2d.csv"]
    roles = ["train"] * len(train_labels) + ["test"] * test_raw.n
    ids = list(range(1, len(train_labels) + 1)) + test_raw.ids.tolist()
    labels = (train_labels.tolist()
              + (test_raw.labels.tolist() if test_raw.labels is not None
                 else [0] * test_raw.n))
    coords = np.vstack([embedding.coords, test_coords]) if test_raw.n else embedding.coords
    _write_embedding_csv(os.path.join(out_dir, "embedding_2d.csv"),
                         coords, labels, ids, roles)

    resolved = {"train_dir": os.path.abspath(args.train_dir),
                "data": os.path.abspath(args.data),
                "dim": args.dim, "k": args.k, "seed": args.seed}
    if test_raw.labels is not None:
        metrics = classification_metrics(preds, test_raw.labels,
                                         positive_class=args.positive_class)
        with open(os.path.join(out_dir, "metrics.csv"), "w") as fh:
            fh.write("metric,value\n")
            for key, value in metrics.as_dict().items():
                fh.write(f"{key},{value:.17g}\n")
        outputs.append("metrics.csv")
        resolved["accuracy"] = metrics.accuracy
    return resolved, outputs


def _eval_cross_validated(args, out_dir: str):
    if args.variant not in VARIANTS:
        raise ValueError(f"--folds needs --variant, one of {sorted(VARIANTS)}; "
                         f"got {args.variant!r}")
    full = dt.load_dataset(args.data, args.labels)
    if full.labels is None:
        raise ValueError("cross-validation requires labels")
    fold_counter = iter(range(10**6))

    def pipeline(train: Dataset, test: Dataset) -> np.ndarray:
        fold = next(fold_counter)
        prepared, stats = prepare_training_data(train, args.variant)
        cfg = _build_config(args, _derive_seed(args.seed, 100 + fold))
        [(ens, kernel)] = _variant_kernels([args.variant], prepared, cfg,
                                           args.h, args.n_labeled, cfg.seed,
                                           args.threads)
        test_prepared = prepare_eval_data(test, args.variant, stats)
        _, _, preds = _embed_and_classify(kernel, ens, test_prepared,
                                          train.labels, args.dim,
                                          _parse_k(args.k), seed=cfg.seed)
        return preds

    result = kfold_evaluate(full, pipeline, folds=args.folds, seed=args.seed,
                            positive_class=args.positive_class)
    rows = [(str(f), m.as_dict()) for f, m in enumerate(result.per_fold, start=1)]
    rows += [("mean", result.mean), ("se", result.se)]
    keys = list(rows[0][1])
    with open(os.path.join(out_dir, "metrics.csv"), "w") as fh:
        fh.write("fold," + ",".join(keys) + "\n")
        for tag, d in rows:
            fh.write(tag + "," + ",".join(f"{d[k]:.17g}" for k in keys) + "\n")
    resolved = {"variant": args.variant, "folds": args.folds, "seed": args.seed,
                "dim": args.dim, "k": args.k,
                "mean": result.mean, "se": result.se}
    return resolved, ["metrics.csv"]


# ------------------------------------------------------------
# reproduce
# ------------------------------------------------------------

def _run_var1_once(seed: int, n_init: int, component_counts, n_jobs: int,
                   h: float, n_labeled: int | None) -> dict:
    train, test = gen_var1(default_var1_params(), seed)
    train = inject_var1_mnar(train, seed=_derive_seed(seed, 11))
    test = inject_var1_mnar(test, seed=_derive_seed(seed, 12))
    train_std, stats = prepare_training_data(train, "tck")
    test_std = prepare_eval_data(test, "tck", stats)

    accuracies = {}
    for family, tag in (("tck", 21), ("tck_im", 22)):
        names = (family, "ss" + family, "s" + family)
        cfg = EnsembleConfig(n_init=n_init, component_counts=component_counts,
                             seed=_derive_seed(seed, tag),
                             mode=VARIANTS[family][0])
        kernels = _variant_kernels(names, train_std, cfg, h, n_labeled,
                                   _derive_seed(seed, 13), n_jobs)
        for name, (ens, kernel) in zip(names, kernels):
            _, _, preds = _embed_and_classify(kernel, ens, test_std,
                                              train.labels, dim=10, k=1)
            accuracies[name] = float((preds == test.labels).mean())
    return accuracies


def reproduce_var1(seed: int = 0, n_init: int = 30, component_counts=None,
                   n_jobs: int = 1, h: float = 0.1,
                   n_labeled: int | None = None, replicates: int = 3) -> dict:
    """Run the six-variant benchmark on freshly generated two-class data.

    The benchmark is regenerated and re-run ``replicates`` times with seeds
    seed, seed+1, ... (the reference accuracies are replicate means), and the
    mean accuracy per variant is compared against the references. Returns the
    measured accuracies and the pass/fail outcome of every check at the
    published tolerances.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be at least 1, got {replicates}")
    per_replicate = [_run_var1_once(seed + r, n_init, component_counts,
                                    n_jobs, h, n_labeled)
                     for r in range(replicates)]
    accuracies = {name: float(np.mean([rep[name] for rep in per_replicate]))
                  for name in per_replicate[0]}

    rows = [{"variant": name, "accuracy": accuracies[name], "target": target,
             "ok": abs(accuracies[name] - target) <= VAR1_ACCURACY_TOL}
            for name, target in VAR1_TARGETS.items()]
    slack = VAR1_ORDERING_SLACK
    checks = [
        {"check": "tck_im - tck >= 0.05",
         "ok": accuracies["tck_im"] - accuracies["tck"] >= 0.05 - slack},
        {"check": "stck >= sstck >= tck",
         "ok": (accuracies["stck"] >= accuracies["sstck"] - slack
                and accuracies["sstck"] >= accuracies["tck"] - slack)},
        {"check": "stck_im >= sstck_im >= tck_im",
         "ok": (accuracies["stck_im"] >= accuracies["sstck_im"] - slack
                and accuracies["sstck_im"] >= accuracies["tck_im"] - slack)},
    ]
    return {"accuracies": accuracies, "per_replicate": per_replicate,
            "rows": rows, "checks": checks, "seed": seed,
            "replicates": replicates}


def cmd_reproduce(args, out_dir: str):
    n_init, counts = _ensemble_size(args)
    report = reproduce_var1(seed=args.seed, n_init=n_init,
                            component_counts=counts,
                            n_jobs=args.threads, h=args.h,
                            n_labeled=args.n_labeled,
                            replicates=args.replicates)
    with open(os.path.join(out_dir, "report.csv"), "w") as fh:
        fh.write("variant,accuracy,target,ok\n")
        for row in report["rows"]:
            fh.write(f"{row['variant']},{row['accuracy']:.17g},"
                     f"{row['target']},{'pass' if row['ok'] else 'FAIL'}\n")
        for check in report["checks"]:
            fh.write(f"\"{check['check']}\",,,{'pass' if check['ok'] else 'FAIL'}\n")
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    for row in report["rows"]:
        print(f"{row['variant']:>10s}  measured={row['accuracy']:.3f}  "
              f"target={row['target']:.3f}  "
              f"{'pass' if row['ok'] else 'FAIL'}")
    for check in report["checks"]:
        print(f"{check['check']}: {'pass' if check['ok'] else 'FAIL'}")
    resolved = {"seed": args.seed, "q": args.q,
                "components": args.components, "h": args.h,
                "n_labeled": args.n_labeled, "replicates": args.replicates}
    return resolved, ["report.csv", "report.json"]


# ------------------------------------------------------------
# Argument plumbing
# ------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file of option values for this "
                                    "command; flags override them")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed (default %(default)s)")
    p.add_argument("--out", help="output directory "
                                 "(default $TCK_OUTPUT_ROOT/tck_<command>)")


def _add_fit_options(p: argparse.ArgumentParser, note: str = "",
                     per_model: bool = True) -> None:
    """Ensemble options; ``note`` ends each help string. ``per_model=False``
    leaves out --t-min and --normalize, which `reproduce` does not use."""
    def add(flag, text, **kwargs):
        p.add_argument(flag, help=text + note, **kwargs)

    add("--q", "random restarts per component count (default %(default)s)",
        type=int, default=30)
    add("--components", "component counts, e.g. '2..22' or '2,3,4' "
                        "(default N_c..N_c+20)")
    add("--h", "anchoring threshold for semi-supervised variants "
               "(default %(default)s)", type=float, default=0.1)
    add("--n-labeled", "labeled series for semi-supervised variants "
                       "(default max(20, 3*N_c))", type=int)
    add("--threads", "parallel base-model fits (default: all cores)", type=int)
    if per_model:
        add("--t-min", "minimum segment length (default %(default)s)",
            type=int, default=6)
        add("--normalize", "divide the kernel by the number of base models",
            action="store_true")


def build_parser() -> tuple:
    """The ``tck`` parser, and its sub-parsers by command name."""
    parser = argparse.ArgumentParser(
        prog="tck",
        description="Time series cluster kernels for incompletely observed "
                    "multivariate time series")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write synthetic benchmark datasets")
    _add_common(g)
    g.add_argument("--recipe", required=True,
                   choices=("var1", "rate_mar", "rate_mnar"))
    g.add_argument("--no-missing", action="store_true",
                   help="var1 without the missing-value injection")
    g.add_argument("--data", help="base data CSV for the rate injectors")
    g.add_argument("--labels", help="base label CSV for the rate injectors")
    g.add_argument("--target-corr", type=float,
                   help="tune injector strength to this |Pearson| value")
    g.add_argument("--strength", type=float, help="explicit injector strength E")

    t = sub.add_parser("train", help="fit an ensemble and write its kernel")
    _add_common(t)
    t.add_argument("--data", required=True)
    t.add_argument("--labels")
    t.add_argument("--variant", required=True, choices=sorted(VARIANTS))
    _add_fit_options(t)

    e = sub.add_parser("eval", help="score held-out data against a trained run")
    _add_common(e)
    e.add_argument("--train-dir", help="output directory of `tck train`")
    e.add_argument("--data", required=True)
    e.add_argument("--labels")
    e.add_argument("--dim", type=int, default=10,
                   help="embedding dimension (default %(default)s)")
    e.add_argument("--k", default=1,
                   help="nearest neighbors: an integer, or 'cv' to pick from "
                        "{1,3,5,7,9} by 5-fold cross-validation "
                        "(default %(default)s)")
    e.add_argument("--positive-class", type=int,
                   help="class for binary F1/sensitivity/specificity")
    e.add_argument("--folds", type=int,
                   help="run k-fold cross-validation on --data instead")
    e.add_argument("--variant", choices=sorted(VARIANTS),
                   help="variant to train per fold; with --folds only")
    _add_fit_options(e, note="; with --folds only")

    r = sub.add_parser("reproduce", help="re-run the published VAR(1) benchmark table")
    _add_common(r)
    r.add_argument("--replicates", type=int, default=3,
                   help="benchmark repetitions averaged into the report "
                        "(default %(default)s)")
    _add_fit_options(r, per_model=False)
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            try:
                config = _load_json_object(args.config)
            except ValueError as exc:
                raise ValueError(f"--config {exc}") from None
            commands[args.command].set_defaults(**{
                key: value for key, value in config.items()
                if key in vars(args) and key != "command"})
            args = parser.parse_args(argv)
        if getattr(args, "threads", False) is None:
            args.threads = os.cpu_count() or 1
        elif getattr(args, "threads", 1) < 1:
            raise ValueError(f"--threads must be at least 1; got {args.threads}")
        out_dir = args.out or os.path.join(
            os.environ.get("TCK_OUTPUT_ROOT", "."), f"tck_{args.command}")
        os.makedirs(out_dir, exist_ok=True)
        handler = {"generate": cmd_generate, "train": cmd_train,
                   "eval": cmd_eval, "reproduce": cmd_reproduce}[args.command]
        resolved, outputs = handler(args, out_dir)
        _write_manifest(out_dir, args.command, resolved, outputs)
        return 0
    except (ValueError, OSError, RuntimeError, FloatingPointError) as exc:
        print(f"tck {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
