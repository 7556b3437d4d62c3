"""Span tracing of tck's public functions, installed from outside the library.

``Tracer.install`` replaces each traced function with a wrapper in every tck
module that holds it, so a call is seen wherever the name is looked up
(``tck.ensemble.e_step`` as well as ``tck.mixture.e_step``). Each call leaves
one span in memory: name, start, end, parent span, request id and an optional
probe value. ``uninstall`` restores the original objects; nothing in ``src/``
changes. ``layer_metrics`` turns spans into the per-layer metrics declared in
BENCHMARK.json.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict

MODULES = ("tck", "tck.mixture", "tck.ensemble", "tck.transform",
           "tck.evaluation", "tck.data", "tck.cli")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _dir_size(path):
    names = os.listdir(path)
    return (sum(os.path.getsize(os.path.join(path, n)) for n in names),
            len(names))


def _stopping_rule(args, kwargs, _result, fn):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments["max_iter"], bound.arguments["tol"]


# Probes run after the call and store one value on the span; the positional
# index is where the library passes the argument.
_PROBES = {
    "mixture.fit_map_em": _stopping_rule,
    "mixture.map_objective": lambda a, k, r, f: r,
    "mixture.e_step": lambda a, k, r, f: _arg(a, k, 1, "data").n,
    "ensemble.kernel_test": lambda a, k, r, f: _arg(a, k, 1, "test").n,
    "ensemble.train_ensemble": lambda a, k, r, f: (
        r[0].model_count + len(r[0].failed), len(r[0].failed)),
    "ensemble.save_ensemble": lambda a, k, r, f: _dir_size(_arg(a, k, 1, "directory")),
}

# span name -> (module that defines it, attribute); "Class.method" for methods.
TRACED = {
    "mixture.fit_map_em": ("tck.mixture", "fit_map_em"),
    "mixture.e_step": ("tck.mixture", "e_step"),
    "mixture.m_step": ("tck.mixture", "m_step"),
    "mixture.map_objective": ("tck.mixture", "map_objective"),
    "mixture.build_prior": ("tck.mixture", "build_prior"),
    "ensemble.train_ensemble": ("tck.ensemble", "train_ensemble"),
    "ensemble.kernel_test": ("tck.ensemble", "kernel_test"),
    "ensemble.apply_posterior_transform": ("tck.ensemble", "apply_posterior_transform"),
    "ensemble.save_ensemble": ("tck.ensemble", "save_ensemble"),
    "ensemble.load_ensemble": ("tck.ensemble", "load_ensemble"),
    "ensemble.save_kernel": ("tck.ensemble", "save_kernel"),
    "ensemble.load_kernel": ("tck.ensemble", "load_kernel"),
    "transform.semisupervised_transform": ("tck.transform", "semisupervised_transform"),
    "transform.supervised_transform": ("tck.transform", "supervised_transform"),
    "transform.apply_transform": ("tck.transform", "apply_transform"),
    "evaluation.kpca": ("tck.evaluation", "kpca"),
    "evaluation.KernelProjector.transform": ("tck.evaluation", "KernelProjector.transform"),
    "evaluation.knn_predict": ("tck.evaluation", "knn_predict"),
    "data.standardize": ("tck.data", "standardize"),
    "data.StandardizationStats.apply": ("tck.data", "StandardizationStats.apply"),
    "data.load_dataset": ("tck.data", "load_dataset"),
    "data.Dataset.restrict": ("tck.data", "Dataset.restrict"),
    "cli.cmd_train": ("tck.cli", "cmd_train"),
    "cli.cmd_eval": ("tck.cli", "cmd_eval"),
}


class Tracer:
    """Records spans ``[name, start, end, parent, request, probe]`` in memory."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        probe = _PROBES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if probe is not None:
                span[5] = probe(args, kwargs, result, fn)
            return result

        return traced

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        for name, (home, attr) in TRACED.items():
            owner = importlib.import_module(home)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def write(self, path):
        """JSON lines: a header naming the fields, then one array per span;
        ``parent`` is the line index of the parent span among the spans."""
        with open(path, "w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "request",
                                 "probe"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


# ------------------------------------------------------------
# Per-layer metrics
# ------------------------------------------------------------

# Functions that run only in set-up; their metrics are per set-up, all others
# per timed operation.
SETUP_SCOPE = ("cli.cmd_train", "ensemble.save_ensemble", "ensemble.save_kernel")


def _em_stats(spans, fit_ids, children):
    """EM iterations, convergence and score evaluations of the given fits."""
    from tck.mixture import DENOM_EPS
    iters = at_max = converged = evals = 0
    for i in fit_ids:
        max_iter, tol = spans[i][5]
        kids = [spans[c] for c in children[i]]
        n_m = sum(1 for s in kids if s[0] == "mixture.m_step")
        objectives = [s[5] for s in kids if s[0] == "mixture.map_objective"]
        evals += sum(1 for s in kids
                     if s[0] in ("mixture.e_step", "mixture.map_objective"))
        # the stopping rule of fit_map_em, applied to the recorded objectives
        ok = (len(objectives) >= 2 and abs(objectives[-1] - objectives[-2])
              < tol * (abs(objectives[-2]) + DENOM_EPS))
        iters += n_m
        converged += ok
        at_max += (n_m == max_iter and not ok)
    return iters, at_max, converged, evals


def layer_metrics(spans, timed_requests, n_ops, setup_requests, n_setups,
                  op_wall_s, overhead_ratio):
    """Per-layer metrics as ``{name: (value, unit)}``.

    Sums over the spans of the timed requests are divided by ``n_ops``; the
    functions in SETUP_SCOPE are summed over set-up spans and divided by
    ``n_setups``. Self time is a span's duration minus its direct children's.
    """
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    busy, self_s, calls, peak = (defaultdict(float), defaultdict(float),
                                 defaultdict(int), defaultdict(float))
    probes, ids = defaultdict(list), defaultdict(list)
    for i, (name, start, end, _, request, probe) in enumerate(spans):
        wanted = setup_requests if name in SETUP_SCOPE else timed_requests
        if request not in wanted:
            continue
        dur = end - start
        busy[name] += dur
        self_s[name] += dur - sum(spans[c][2] - spans[c][1] for c in children[i])
        calls[name] += 1
        peak[name] = max(peak[name], dur)
        probes[name].append(probe)
        ids[name].append(i)

    def op(value):
        return value / n_ops

    def setup(value):
        return value / n_setups

    out = {}
    for name in ("mixture.fit_map_em", "mixture.e_step", "mixture.m_step",
                 "mixture.map_objective", "mixture.build_prior"):
        out[f"{name}.busy_s"] = (op(busy[name]), "s")
    out["mixture.fit_map_em.self_s"] = (op(self_s["mixture.fit_map_em"]), "s")
    for name in ("mixture.fit_map_em", "mixture.e_step", "mixture.m_step",
                 "mixture.map_objective"):
        out[f"{name}.calls"] = (op(calls[name]), "count")
    out["mixture.e_step.rows"] = (op(sum(probes["mixture.e_step"])), "count")
    iters, at_max, converged, evals = _em_stats(
        spans, ids["mixture.fit_map_em"], children)
    fits = calls["mixture.fit_map_em"]
    out["mixture.em_iters_per_fit"] = (iters / fits if fits else 0.0, "count")
    out["mixture.fits_at_max_iter"] = (op(at_max), "count")
    out["mixture.converged_ratio"] = (converged / fits if fits else 0.0, "ratio")
    out["mixture.score_evals_per_iter"] = (evals / iters if iters else 0.0, "ratio")

    for name in ("ensemble.train_ensemble", "ensemble.kernel_test"):
        out[f"{name}.busy_s"] = (op(busy[name]), "s")
        out[f"{name}.self_s"] = (op(self_s[name]), "s")
    out["ensemble.kernel_test.calls"] = (op(calls["ensemble.kernel_test"]), "count")
    out["ensemble.kernel_test.series"] = (
        op(sum(probes["ensemble.kernel_test"])), "count")
    trained = probes["ensemble.train_ensemble"]
    out["ensemble.models_attempted"] = (op(sum(p[0] for p in trained)), "count")
    out["ensemble.models_failed"] = (op(sum(p[1] for p in trained)), "count")
    for name in ("ensemble.apply_posterior_transform", "ensemble.load_ensemble",
                 "ensemble.load_kernel"):
        out[f"{name}.busy_s"] = (op(busy[name]), "s")
    for name in ("ensemble.save_ensemble", "ensemble.save_kernel"):
        out[f"{name}.busy_s"] = (setup(busy[name]), "s")
    saved = probes["ensemble.save_ensemble"]
    out["ensemble.save_ensemble.bytes"] = (setup(sum(p[0] for p in saved)), "B")
    out["ensemble.save_ensemble.files"] = (setup(sum(p[1] for p in saved)), "count")

    for name in ("transform.semisupervised_transform",
                 "transform.supervised_transform", "transform.apply_transform"):
        out[f"{name}.calls"] = (op(calls[name]), "count")
        out[f"{name}.busy_s"] = (op(busy[name]), "s")

    out["evaluation.kpca.calls"] = (op(calls["evaluation.kpca"]), "count")
    out["evaluation.kpca.busy_s"] = (op(busy["evaluation.kpca"]), "s")
    out["evaluation.kpca.max_s"] = (peak["evaluation.kpca"], "s")
    for name in ("evaluation.KernelProjector.transform", "evaluation.knn_predict",
                 "data.standardize", "data.StandardizationStats.apply",
                 "data.load_dataset"):
        out[f"{name}.busy_s"] = (op(busy[name]), "s")
    out["data.Dataset.restrict.calls"] = (op(calls["data.Dataset.restrict"]), "count")

    out["cli.cmd_train.busy_s"] = (setup(busy["cli.cmd_train"]), "s")
    out["cli.cmd_eval.busy_s"] = (op(busy["cli.cmd_eval"]), "s")
    out["cli.cmd_eval.self_s"] = (op(self_s["cli.cmd_eval"]), "s")

    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    out["trace.op_wall_s"] = (op_wall_s, "s")
    return out
