"""Module layering: estimation code does not depend on the simulator."""
from __future__ import annotations

import ast
from pathlib import Path

import mgp

SRC = Path(mgp.__file__).parent

# the modules that may import mgp.simulator: the package exports and the
# CLI's simulate step
SIMULATOR_IMPORTERS = {"__init__.py", "cli.py"}


def _imported_modules(tree: ast.Module) -> set[str]:
    """Absolute names of the mgp modules a module imports, with relative
    imports resolved against the package."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "mgp" if node.level else ""
            module = ".".join(filter(None, (base, node.module)))
            out.add(module)
            # ``from . import simulator`` or ``from mgp import simulator``
            out.update(f"{module}.{alias.name}" for alias in node.names)
    return out


def test_only_cli_and_package_import_the_simulator() -> None:
    importers = sorted(
        path.name
        for path in SRC.glob("*.py")
        if "mgp.simulator" in _imported_modules(ast.parse(path.read_text()))
    )
    assert set(importers) <= SIMULATOR_IMPORTERS, importers


def test_import_scan_sees_every_form() -> None:
    for source in (
        "from .simulator import simulate",
        "from . import simulator",
        "from mgp.simulator import simulate",
        "from mgp import simulator",
        "import mgp.simulator",
        "def f():\n    from .simulator import simulate\n",
    ):
        assert "mgp.simulator" in _imported_modules(ast.parse(source)), source
    assert "mgp.simulator" not in _imported_modules(ast.parse("from .streams import simulator_x"))
