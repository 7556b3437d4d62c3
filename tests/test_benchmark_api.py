"""The benchmark harness under perfbench/ reaches tck through its public
names and a few CLI helpers. These tests fail when a change removes or
renames one of them, instead of leaving the breakage to the next benchmark
run. perfbench/ is only read here, never imported as a package."""
import ast
import importlib.util
from pathlib import Path

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
