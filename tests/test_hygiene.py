"""Source hygiene checks on the dpdist package, using only the stdlib.

Every name a module exports through ``__all__`` must exist, and no module
may import a name it never uses (``__init__.py`` imports only to
re-export, so it is exempt from the second check).
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dpdist"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))


@pytest.mark.parametrize("stem", MODULES)
def test_all_names_exist(stem):
    name = "dpdist" if stem == "__init__" else f"dpdist.{stem}"
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names undefined: {missing}"


def _unused_imports(tree: ast.Module):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("stem", [s for s in MODULES if s != "__init__"])
def test_no_unused_imports(stem):
    tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
    assert _unused_imports(tree) == [], f"{stem}.py imports names it never uses"
