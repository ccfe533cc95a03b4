"""Import layering of the package, read from the source files' syntax trees."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE_DIR = Path(__file__).resolve().parents[1] / "src" / "procsem"


def procsem_imports(module: str) -> set[str]:
    """Names of the procsem modules that `module` imports."""
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text("utf-8"))
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # Relative imports inside the package resolve against `procsem`.
            base = ".".join(filter(None, ["procsem" if node.level else "", node.module]))
            names = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(n.split(".")[1] for n in names if n.startswith("procsem."))
    return found


def test_reader_sees_the_known_imports():
    assert {"taskgen", "promptgen", "tree_dsl"} <= procsem_imports("fileio")


def test_fileio_imports_neither_scoring_nor_cli():
    assert not procsem_imports("fileio") & {"evaluation", "cli"}


def test_core_imports_no_other_procsem_module():
    assert procsem_imports("core") == set()
