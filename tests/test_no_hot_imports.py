"""No ``import`` inside a function body on the simulation's call paths.

A function-level ``from x import y`` re-runs the import machinery's
``_handle_fromlist`` (a Python frame) on every call: 1.4-2.5 us each on
the fleet's per-request methods before they were hoisted. Under the
packages a simulation executes per operation, imports live at module
level; a genuine cycle-breaker goes in ``ALLOWED`` with its reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

_PACKAGES = (
    "fleet", "zns", "ftl", "flash", "hostio", "apps",
    "placement", "sim", "workloads", "obs", "faults",
)

#: ``("package/module.py", "function")`` -> why the import must stay local.
ALLOWED: dict[tuple[str, str], str] = {}


def function_level_imports(path: Path) -> list[tuple[str, int]]:
    """``(function name, line)`` of every import inside a function body."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    found.append((node.name, inner.lineno))
    return found


def _checked_files() -> list[Path]:
    files = [SRC / "block" / "dmzoned.py"]
    for package in _PACKAGES:
        files += sorted((SRC / package).rglob("*.py"))
    return files


def test_hot_packages_import_at_module_level():
    offenders = [
        f"{path.relative_to(SRC)}:{line} in {function}()"
        for path in _checked_files()
        for function, line in function_level_imports(path)
        if (str(path.relative_to(SRC)), function) not in ALLOWED
    ]
    assert offenders == [], "hoist, or add to ALLOWED with a reason: " + ", ".join(offenders)


def test_the_scan_covers_the_serving_plane_and_sees_nested_imports(tmp_path):
    assert SRC / "fleet" / "rack.py" in _checked_files()
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import os\n"
        "class T:\n"
        "    def step(self):\n"
        "        from os import path\n"
        "        return path\n"
    )
    assert function_level_imports(sample) == [("step", 4)]

