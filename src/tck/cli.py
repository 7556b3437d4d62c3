"""Command-line front end: generate / train / eval / reproduce.

Argument handling and file I/O only; the experiment itself lives in
``tck.experiment``. ``main`` runs every command. Each option's default is
written once, in its argparse definition; a ``--config`` JSON file
overrides the defaults of the chosen command and flags override both.
``main`` creates the output directory and writes ``manifest.json`` from
what the ``cmd_*`` handler returns: the resolved configuration and the
files it wrote. Identical invocations produce identical bytes.
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
                       apply_posterior_transform, load_ensemble, save_ensemble,
                       save_kernel, train_ensemble)
from .evaluation import classification_metrics, kfold_evaluate
from .experiment import (VARIANTS, _derive_seed, _embed_and_classify,
                         _transform_factory, prepare_eval_data,
                         prepare_training_data, reproduce_var1, var1_data)
# Scripts outside the package read these through tck.cli.
from .experiment import VAR1_TARGETS, stratified_label_subset  # noqa: F401
from .synth import (default_var1_params, inject_rate_mar, inject_rate_mnar,
                    tune_informativeness)


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


def _check_dim_and_k(args, n_train: int | None = None) -> None:
    """Refuse a --dim or an integer --k below 1, or above ``n_train``, the
    fewest training series it will meet, when that is known."""
    for flag, value in (("--dim", args.dim), ("--k", _parse_k(args.k))):
        if value == "cv" or 1 <= value <= (value if n_train is None else n_train):
            continue
        if n_train is None:
            raise ValueError(f"{flag} must be at least 1; got {value}")
        raise ValueError(f"{flag} must lie in 1..{n_train}, the series of the "
                         f"smallest training split; got {value}")


def _check_positive_class(args, labels: np.ndarray) -> None:
    """Refuse a --positive-class that does not occur in ``labels``."""
    if args.positive_class is not None and args.positive_class not in labels:
        raise ValueError(f"--positive-class {args.positive_class} does not "
                         f"occur in the labels")


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
        data = var1_data(seed, missing=not args.no_missing)
        train, test = data.train, data.test
        info = {"generator": {
            "length": params.length,
            "n_per_class": params.n_per_class,
            "classes": [{"cross_corr": c.cross_corr, "ar": list(c.ar),
                         "mean": list(c.mean),
                         "intercept": c.intercept.tolist()}
                        for c in params.classes]}}
        if not args.no_missing:
            info["missing_fraction_train"] = float(1.0 - train.mask.mean())
            info["missing_fraction_test"] = float(1.0 - test.mask.mean())
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

def _fit_variant(args, data: Dataset, seed: int) -> tuple:
    """(standardization stats, ensemble, train kernel) of --variant on
    ``data``, with ``seed`` for the ensemble and the label subset. The
    options are checked before the fit."""
    prepared, stats = prepare_training_data(data, args.variant)
    n_init, counts = _ensemble_size(args)
    cfg = EnsembleConfig(n_init=n_init, component_counts=counts,
                         t_min=args.t_min, seed=seed,
                         mode=VARIANTS[args.variant][0],
                         normalize_by_models=args.normalize)
    factory = _transform_factory(args.variant, prepared, args.h, args.n_labeled,
                                 seed, counts)
    fitted = train_ensemble(prepared, cfg, n_jobs=args.threads)
    if factory is not None:
        fitted = apply_posterior_transform(fitted[0], factory)
    return (stats, *fitted)


def cmd_train(args, out_dir: str):
    raw = dt.load_dataset(args.data, args.labels)
    stats, ens, kernel = _fit_variant(args, raw, args.seed)
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
        "ensemble": {"n_init": ens.config.n_init,
                     "component_counts": list(ens.config.component_counts),
                     "mode": ens.config.mode},
        "standardization": _stats_to_dict(stats),
        "train_labels": None if raw.labels is None else raw.labels.tolist(),
        "model_count": kernel.model_count,
        "failed_models": len(ens.failed),
    }
    return resolved, ["ensemble", "kernel_train.csv", "kernel_train.npy"]


# ------------------------------------------------------------
# eval
# ------------------------------------------------------------

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
    _check_dim_and_k(args)
    test_raw = dt.load_dataset(args.data, args.labels)
    if test_raw.labels is not None:
        _check_positive_class(args, test_raw.labels)
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

    test_prepared = prepare_eval_data(test_raw, variant, stats)
    embedding, test_coords, preds = _embed_and_classify(
        kernel_train, ens, test_prepared, train_labels, args.dim,
        _parse_k(args.k), seed=args.seed)
    resolved = {"train_dir": os.path.abspath(args.train_dir),
                "data": os.path.abspath(args.data),
                "dim": args.dim, "k": args.k, "seed": args.seed}
    if test_raw.labels is not None:
        metrics = classification_metrics(preds, test_raw.labels,
                                          positive_class=args.positive_class)
        resolved["accuracy"] = metrics.accuracy

    outputs = ["embedding_2d.csv"]
    roles = ["train"] * len(train_labels) + ["test"] * test_raw.n
    ids = list(range(1, len(train_labels) + 1)) + test_raw.ids.tolist()
    labels = (train_labels.tolist()
              + (test_raw.labels.tolist() if test_raw.labels is not None
                 else [0] * test_raw.n))
    coords = np.vstack([embedding.coords, test_coords]) if test_raw.n else embedding.coords
    _write_embedding_csv(os.path.join(out_dir, "embedding_2d.csv"),
                         coords, labels, ids, roles)
    if test_raw.labels is not None:
        with open(os.path.join(out_dir, "metrics.csv"), "w") as fh:
            fh.write("metric,value\n")
            for key, value in metrics.as_dict().items():
                fh.write(f"{key},{value:.17g}\n")
        outputs.append("metrics.csv")
    return resolved, outputs


def _eval_cross_validated(args, out_dir: str):
    if args.variant not in VARIANTS:
        raise ValueError(f"--folds needs --variant, one of {sorted(VARIANTS)}; "
                         f"got {args.variant!r}")
    full = dt.load_dataset(args.data, args.labels)
    if full.labels is None:
        raise ValueError("cross-validation requires labels")
    if 2 <= args.folds <= full.n:   # kfold_evaluate refuses other fold counts
        # series are dealt to the folds in turn, so the largest fold holds
        # ceil(N / folds) of them and the smallest training split the rest
        _check_dim_and_k(args, full.n * (args.folds - 1) // args.folds)
    _check_positive_class(args, full.labels)
    fold_counter = iter(range(10**6))

    def pipeline(train: Dataset, test: Dataset) -> np.ndarray:
        seed = _derive_seed(args.seed, 100 + next(fold_counter))
        stats, ens, kernel = _fit_variant(args, train, seed)
        test_prepared = prepare_eval_data(test, args.variant, stats)
        _, _, preds = _embed_and_classify(kernel, ens, test_prepared,
                                          train.labels, args.dim,
                                          _parse_k(args.k), seed=seed)
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


_KINDS = {int: "an integer", float: "a number"}


def _config_value(parser: argparse.ArgumentParser, key: str, value, path: str):
    """A ``--config`` value as its option's flag would give it: converted by
    the option's ``type`` and checked against its ``choices``. A JSON value
    that the flag could not give raises a ValueError naming the key."""
    action = next(a for a in parser._actions if a.dest == key)
    ok = True
    if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
        kind, ok = "true or false", type(value) is bool
    elif action.type is not None:
        kind = _KINDS[action.type]
        try:
            value = action.type(value if isinstance(value, str) else json.dumps(value))
        except ValueError:
            ok = False
    else:       # a string, or a value of the default's own type (--k 1)
        default = action.default
        kind = "a string" + ("" if default is None else f" or {_KINDS[type(default)]}")
        ok = isinstance(value, str) or (default is not None
                                        and type(value) is type(default))
    if ok and action.choices is not None and value not in action.choices:
        kind, ok = "one of " + ", ".join(map(str, action.choices)), False
    if not ok:
        raise ValueError(f"--config {path}: {key!r} must be {kind}; "
                         f"got {json.dumps(value)}")
    return value


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
            sub = commands[args.command]
            sub.set_defaults(**{
                key: _config_value(sub, key, value, args.config)
                for key, value in config.items()
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
