"""Every function and method in src/tck has a reader in src/tck, so that code
only the tests call lives under tests/, not in the library."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tck"


def unread_definitions() -> set:
    """Names of the functions and methods defined in src/tck that no src/tck
    code names; dunder methods, which Python itself calls, are left out."""
    defined, named = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    return {name for name in defined - named
            if not (name.startswith("__") and name.endswith("__"))}


def test_no_definition_in_src_is_read_only_by_tests():
    # perfbench/ is the only reader of these three: its tracer wraps
    # ``e_step`` and ``Dataset.restrict``, and its ``eval`` set-up check calls
    # ``load_kernel``. They leave with the benchmark change of ROADMAP item 9.
    assert unread_definitions() == {"e_step", "restrict", "load_kernel"}
