"""Every script in demos/ runs to the end and prints its walk-through."""
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", [
    "kernel_anatomy",
    "label_transforms",
    "missingness_injectors",
    pytest.param("benchmark_two_class_var1", marks=pytest.mark.slow),
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert "\n" in capsys.readouterr().out
