"""Source and import hygiene checks on the dpdist package.

Every name a module exports through ``__all__`` must exist and be used
outside its own definition, and no module or test file may import a name
it never uses (``__init__.py`` imports only to re-export, so it is exempt
from the second check).  Importing the package and its CLI loads numpy and
the stdlib only, and not ``concurrent.futures``, which the batched
experiments load on their first run; ``scipy.stats`` loads on the first
experiment that runs a chi-squared test, and that lazy load must not change
a byte of its CSV.
"""

import ast
import dataclasses
import functools
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dpdist.cli import run_experiment
from dpdist.experiments import ExperimentConfig

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "dpdist"
MODULES = sorted(p.stem for p in SRC.glob("*.py"))
SUBMODULES = [s for s in MODULES if s != "__init__"]

# The only exported names that nothing uses yet, each with the ROADMAP item that wires it in.
PENDING_USE = {
    "distributed.coalition_view_distribution": "item 3",
    "audit.round_budget": "item 4",
    "local_model.flip_party": "item 4",
    "local_model.run_interactive": "item 4",
}


def _fresh_python(code: str):
    """Run ``code`` in a new interpreter that imports dpdist from this tree; return its JSON stdout."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize("stem", MODULES)
def test_all_names_exist(stem):
    name = "dpdist" if stem == "__init__" else f"dpdist.{stem}"
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names undefined: {missing}"


def _names_used_in_src():
    """Every name the package loads or imports; a definition does not load its own name."""
    used = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


@functools.lru_cache(maxsize=None)
def _unused_exports():
    """``module.name`` for each ``__all__`` name of a submodule that nothing uses.

    A use is a load or import in ``src/dpdist`` (so an ``__init__``
    re-export counts), or the name as a word in ``bench/``, the acceptance
    suite or ``pyproject.toml``.
    """
    used = _names_used_in_src()
    texts = [p.read_text(encoding="utf-8") for p in sorted((REPO / "bench").glob("*.py"))]
    texts += [(REPO / f).read_text(encoding="utf-8") for f in ("tests/test_acceptance.py", "pyproject.toml")]
    unused = set()
    for stem in SUBMODULES:
        for name in importlib.import_module(f"dpdist.{stem}").__all__:
            word = re.compile(rf"\b{name}\b")
            if name not in used and not any(word.search(t) for t in texts):
                unused.add(f"{stem}.{name}")
    return frozenset(unused)


@pytest.mark.parametrize("stem", SUBMODULES)
def test_every_export_is_used(stem):
    unused = sorted(key for key in _unused_exports() - PENDING_USE.keys() if key.split(".")[0] == stem)
    assert unused == [], f"{stem} exports names nothing uses: delete them or wire them in"


def test_pending_names_are_still_unused():
    assert sorted(PENDING_USE.keys() - _unused_exports()) == [], "these names are used now: drop them from PENDING_USE"


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


@pytest.mark.parametrize("stem", SUBMODULES)
def test_no_unused_imports(stem):
    tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
    assert _unused_imports(tree) == [], f"{stem}.py imports names it never uses"


@pytest.mark.parametrize("name", sorted(p.name for p in (REPO / "tests").glob("*.py")))
def test_no_unused_imports_in_tests(name):
    tree = ast.parse((REPO / "tests" / name).read_text(encoding="utf-8"))
    assert _unused_imports(tree) == [], f"tests/{name} imports names it never uses"


def test_import_loads_numpy_and_stdlib_only():
    report = _fresh_python(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import dpdist, dpdist.cli\n"
        "print(json.dumps({'file': dpdist.__file__,\n"
        "    'scipy': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
        "    'futures': 'concurrent.futures' in sys.modules,\n"
        "    'new': sorted({m.split('.')[0] for m in set(sys.modules) - before})}))\n"
    )
    assert Path(report["file"]).parent == SRC
    assert report["scipy"] == []
    assert not report["futures"], "import dpdist.cli loads concurrent.futures; the batched experiments load it"
    assert "numpy" in report["new"]
    foreign = [m for m in report["new"] if m not in ("dpdist", "numpy") and m not in sys.stdlib_module_names]
    assert foreign == [], f"import dpdist.cli loads third-party modules {foreign}"


CHI2_CONFIGS = [
    dict(experiment="symmetry", n=40, trials=300, seed=5),
    dict(experiment="rr-distributed", n=6, trials=300, seed=5),
]


def test_lazy_scipy_load_keeps_csv_bytes():
    """A fresh interpreter loads scipy.stats on its first chi-squared run; its CSVs match this process's."""
    report = _fresh_python(
        "import json, sys\n"
        "from dpdist.cli import run_experiment\n"
        "from dpdist.experiments import ExperimentConfig\n"
        "loaded = ['scipy.stats' in sys.modules]\n"
        "texts = []\n"
        f"for kw in {CHI2_CONFIGS!r}:\n"
        "    texts.append(run_experiment(ExperimentConfig(**kw)))\n"
        "    loaded.append('scipy.stats' in sys.modules)\n"
        "print(json.dumps({'loaded': loaded, 'texts': texts}))\n"
    )
    assert report["loaded"] == [False, True, True]
    importlib.import_module("scipy.stats")
    assert report["texts"] == [run_experiment(ExperimentConfig(**kw)) for kw in CHI2_CONFIGS]


def _config_knob_reads(tree: ast.Module):
    """(function, line, knob) for each read of an ExperimentConfig knob outside ``_resolve``.

    A read is ``cfg.knob`` or ``getattr(cfg, ...)`` on a parameter annotated
    ``ExperimentConfig``; ``experiment``, ``seed`` and ``out`` are not knobs.
    """
    knobs = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"experiment", "seed", "out"}
    reads = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name == "_resolve":
            continue
        configs = {
            a.arg for a in fn.args.args
            if isinstance(a.annotation, ast.Name) and a.annotation.id == "ExperimentConfig"
        }
        for node in ast.walk(fn):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in configs and node.attr in knobs):
                reads.append((fn.name, node.lineno, node.attr))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "getattr" and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in configs):
                reads.append((fn.name, node.lineno, "getattr"))
    return reads


def test_only_resolve_reads_experiment_knobs():
    tree = ast.parse((SRC / "experiments.py").read_text(encoding="utf-8"))
    assert _config_knob_reads(tree) == []
