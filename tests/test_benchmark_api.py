"""The benchmark harness under perfbench/ reaches tck through its public
names and a few CLI helpers. These tests fail when a change removes or
renames one of them, instead of leaving the breakage to the next benchmark
run. perfbench/ is only read here, never imported as a package."""
import ast
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import tck
import tck.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_function(home, attr):
    """The object a TRACED entry names: a module function or a method."""
    owner = importlib.import_module(home)
    if "." in attr:
        cls, meth = attr.split(".")
        return vars(getattr(owner, cls))[meth]
    return getattr(owner, attr)


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    originals = {name: traced_function(*where)
                 for name, where in tracing.TRACED.items()}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for name, where in tracing.TRACED.items():
            assert traced_function(*where) is not originals[name], name
        assert tck.train_ensemble is tck.ensemble.train_ensemble
    finally:
        tracer.uninstall()
    for name, where in tracing.TRACED.items():
        assert traced_function(*where) is originals[name], name


def test_traced_em_metrics_match_the_fit_reports():
    """The EM metrics that ``layer_metrics`` derives from the spans of
    ``m_step``, ``map_objective`` and ``build_prior`` agree with the
    ``FitReport`` of each fit, some of which stop at their ``max_iter``."""
    tracing = load_tracing()
    rng = np.random.default_rng(0)
    values = rng.normal(size=(40, 2, 8))
    mask = (rng.random(values.shape) < 0.8).astype(np.uint8)
    mask[:, :, 0] = 1
    data = tck.Dataset(values, mask, None, 0, np.arange(1, 41))
    hp = tck.HyperParams(0.1, 0.1, 0.05)
    runs = [(2, 0, tck.GAUSSIAN_ONLY, 50), (3, 1, tck.MIXED_MODE, 50),
            (3, 2, tck.GAUSSIAN_ONLY, 2), (2, 3, tck.MIXED_MODE, 1)]
    tracer = tracing.Tracer()
    tracer.request = 0
    reports = []
    try:
        tracer.install()
        for g, seed, mode, max_iter in runs:
            reports.append(tck.fit_map_em(data, g, hp, seed, mode=mode,
                                          max_iter=max_iter)[1])
    finally:
        tracer.uninstall()
    metrics = {name: value for name, (value, _) in tracing.layer_metrics(
        tracer.spans, {0}, 1, set(), 1, 0.0, 0.0).items()}

    sweeps = [len(r.objectives) for r in reports]
    at_max = sum(n == run[3] and not r.converged
                 for n, run, r in zip(sweeps, runs, reports))
    assert 0 < at_max < len(runs)
    assert metrics["mixture.fit_map_em.calls"] == len(runs)
    assert metrics["mixture.em_iters_per_fit"] == pytest.approx(np.mean(sweeps))
    assert metrics["mixture.converged_ratio"] == pytest.approx(
        np.mean([r.converged for r in reports]))
    assert metrics["mixture.fits_at_max_iter"] == at_max
    assert metrics["mixture.m_step.calls"] == sum(sweeps)
    assert metrics["mixture.map_objective.calls"] == sum(sweeps)
    assert metrics["mixture.score_evals_per_iter"] == 1.0
    assert metrics["mixture.build_prior.busy_s"] > 0


def test_cli_helpers_used_by_the_workloads_exist():
    for name in ("main", "prepare_eval_data", "stratified_label_subset"):
        assert callable(getattr(tck.cli, name)), name


def test_every_tck_attribute_in_the_workloads_resolves():
    """Each ``tck.<name>`` and ``tck.cli.<name>`` that workloads.py reads."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "tck":
            names.add(("tck", node.attr))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) \
                and isinstance(node.value.value, ast.Name) \
                and node.value.value.id == "tck" and node.value.attr == "cli":
            names.add(("tck.cli", node.attr))
    assert ("tck", "train_ensemble") in names
    assert ("tck.cli", "main") in names
    modules = {"tck": tck, "tck.cli": tck.cli}
    missing = [f"{mod}.{attr}" for mod, attr in sorted(names)
               if not hasattr(modules[mod], attr)]
    assert not missing


def test_every_name_imported_from_tck_cli_resolves():
    """Each ``from tck.cli import <name>`` under perfbench/. Some run only
    when a workload's report is printed, so a moved name would otherwise
    break the benchmark late."""
    names = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "tck.cli":
                names.update(alias.name for alias in node.names)
    assert "VAR1_TARGETS" in names
    assert not [name for name in sorted(names) if not hasattr(tck.cli, name)]
