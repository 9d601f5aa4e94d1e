"""Source and import hygiene checks on the dpdist package.

Every name a module exports through ``__all__`` must exist and be used
outside its own definition and outside any definition that is itself
unused; an ``__init__.py`` re-export is not a use.  Every method and
property of an exported class must be read as an attribute outside its own
body by the package, ``bench/`` or the acceptance suite.  No module or test file
may import a name it never uses (``__init__.py`` imports only to re-export,
so it is exempt from that check too).  Importing the package and its CLI loads numpy and
the stdlib only, and not ``concurrent.futures``, which the batched
experiments load on their first run.  It registers ``audit``,
``distributed``, ``fixtures`` and ``local_model`` without executing them;
each entry point executes only the ones it reads, each imports in every
form, and the thread-pooled experiments give the same CSVs as their first
run in a fresh interpreter.  The chi-squared rows hold the
package's only scipy import, of ``scipy.special`` alone: it loads only for
a table outside their own p-value's domain (dof past 40 or chi2 at most
2.2), which no benchmark table is, ``scipy.stats`` never loads, and the
CSVs are the same bytes in a process that has ``scipy.stats``.
Only ``distributed._execution`` calls ``Execution(``.  Only
``distributed._checked_sends`` and the transcript oracle
``distributed.consistent_probability`` read ``.send``, and only
``_checked_sends`` and ``_check_all_used``, which the engine and the
curator compiler share, raise ``ObliviousnessViolationError``.  In
``audit`` only ``privacy_loss`` takes the log of a quotient of
probabilities (``round_budget``'s ln(ell / beta) is no probability ratio).
No handler in the package catches ``Exception`` or ``BaseException`` or is
a bare ``except:``, so a party program's error propagates as raised.  The
protocol layers (``core``, ``mechanisms``, ``seeding``, ``local_model``,
``distributed``, ``audit`` and ``fixtures``) hold no ``except`` clause at
all: only ``cli`` (errors to exit status 2) and ``experiments._batched``
(the ``sched_getaffinity`` platform fallback) handle exceptions.  Under
the suite's warning filters a failing Hypothesis test fails plainly and
prints its falsifying example.
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

import numpy as np
import pytest

from dpdist.cli import run_experiment
from dpdist.experiments import _BATCH, ExperimentConfig, _chi2_rows

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


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names_used(trees, dead=frozenset()):
    """Every name the modules load or import, outside the top-level definitions in ``dead``.

    ``trees`` maps a module stem to its AST and ``dead`` holds ``stem.name``
    keys.  A top-level definition's loads of its own name (recursion, a
    class naming itself) are not a use of it.
    """
    used = set()
    for stem, tree in trees.items():
        for top in tree.body:
            own = top.name if isinstance(top, _DEFS) else None
            if own and f"{stem}.{own}" in dead:
                continue
            names = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            used |= names - {own}
    return used


def _dead_exports(trees, exports, texts=()):
    """``stem.name`` for each name in ``exports`` (stem -> names) that nothing live uses.

    A use is a load or import in ``trees`` outside a definition already
    found dead, or the name as a word in one of ``texts``.  Skipping a dead
    definition can expose more, so this repeats until nothing new is found.
    """
    dead = frozenset()
    while True:
        used = _names_used(trees, dead)
        found = frozenset(
            f"{stem}.{name}"
            for stem, names in exports.items()
            for name in names
            if name not in used and not any(re.search(rf"\b{name}\b", t) for t in texts)
        )
        if found == dead:
            return dead
        dead = found


@functools.lru_cache(maxsize=None)
def _live_sources():
    """The submodules' ASTs and ``__all__`` lists by stem, and the texts that count as live uses.

    The texts are ``bench/``'s scripts, the acceptance suite and ``pyproject.toml``.
    """
    trees = {stem: ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8")) for stem in SUBMODULES}
    exports = {stem: importlib.import_module(f"dpdist.{stem}").__all__ for stem in SUBMODULES}
    texts = [p.read_text(encoding="utf-8") for p in sorted((REPO / "bench").glob("*.py"))]
    texts += [(REPO / f).read_text(encoding="utf-8") for f in ("tests/test_acceptance.py", "pyproject.toml")]
    return trees, exports, texts


@functools.lru_cache(maxsize=None)
def _unused_exports():
    """``module.name`` for each ``__all__`` name of a submodule that nothing live uses.

    A use is a load or import in a submodule of ``src/dpdist`` (an
    ``__init__`` re-export is not one), or the name as a word in ``bench/``,
    the acceptance suite or ``pyproject.toml``.
    """
    return _dead_exports(*_live_sources())


@pytest.mark.parametrize("stem", SUBMODULES)
def test_every_export_is_used(stem):
    unused = sorted(key for key in _unused_exports() - PENDING_USE.keys() if key.split(".")[0] == stem)
    assert unused == [], f"{stem} exports names nothing uses: delete them or wire them in"


PLANTED = """
def b():
    return 1


def a():
    return b()


class C:
    def copy(self):
        return C()


def d():
    return d()


def e():
    return 2
"""


@pytest.mark.parametrize(
    "user,texts,dead",
    [
        ("", (), {"a", "b", "C", "d", "e"}),
        ("from .planted import e\ne()\n", (), {"a", "b", "C", "d"}),
        ("from .planted import a, e\na(); e()\n", (), {"C", "d"}),
        ("", ("C, d and e are named in this script",), {"a", "b"}),
        ("import planted\nplanted.C(); planted.e()\n", (), {"a", "b", "d"}),
    ],
    ids=["nothing-used", "dead-def-uses-b", "live-a-keeps-b", "named-in-text", "attribute-use"],
)
def test_dead_exports_skips_dead_definitions(user, texts, dead):
    trees = {"planted": ast.parse(PLANTED), "user": ast.parse(user)}
    found = _dead_exports(trees, {"planted": ["a", "b", "C", "d", "e"]}, texts)
    assert found == {f"planted.{name}" for name in dead}


def test_dead_exports_follows_a_chain():
    chain = "def a():\n    return b()\n\ndef b():\n    return c()\n\ndef c():\n    return 0\n"
    assert _dead_exports({"m": ast.parse(chain)}, {"m": ["a", "b", "c"]}) == {"m.a", "m.b", "m.c"}


def test_pending_names_are_still_unused():
    assert sorted(PENDING_USE.keys() - _unused_exports()) == [], "these names are used now: drop them from PENDING_USE"


def _unread_methods(trees, exports, texts=(), dead=frozenset()):
    """``stem.Class.method`` for each method or property of a class in ``exports`` that nothing live reads.

    A read is an attribute load of the method's name in ``trees``, outside
    the method's own body and the top-level definitions in ``dead``, or
    ``.name`` in one of ``texts`` (a bare word would match builtins such as
    ``enumerate``).  Dataclass fields are not methods, and Python itself
    calls the dunder methods.
    """
    attrs = [
        (node.attr, id(node))
        for stem, tree in trees.items()
        for top in tree.body
        if not (isinstance(top, _DEFS) and f"{stem}.{top.name}" in dead)
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute)
    ]
    found = set()
    for stem, names in exports.items():
        for cls in trees[stem].body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in names):
                continue
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) or method.name.startswith("__"):
                    continue
                own = {id(node) for node in ast.walk(method)}
                if not any(attr == method.name and i not in own for attr, i in attrs) and not any(
                    re.search(rf"\.{method.name}\b", t) for t in texts
                ):
                    found.add(f"{stem}.{cls.name}.{method.name}")
    return found


def test_every_exported_method_is_read():
    unread = sorted(_unread_methods(*_live_sources(), dead=_unused_exports()))
    assert unread == [], "only tests, or nothing, read these methods: delete them or wire them in"


PLANTED_CLASS = """
@dataclass
class K:
    field: int

    def __len__(self):
        return 0

    def again(self):
        return self.again()

    @property
    def size(self):
        return 1

    def used(self):
        return 2


def user(k):
    return k.used()


def dead_user(k):
    return k.size
"""


@pytest.mark.parametrize(
    "texts,dead,unread",
    [
        ((), (), {"again"}),
        (("k.again()",), (), set()),
        (("again is a bare word",), (), {"again"}),
        ((), ("planted.user",), {"again", "used"}),
        ((), ("planted.dead_user",), {"again", "size"}),
    ],
    ids=["own-body-read", "read-in-text", "bare-word", "dead-reader", "dead-property-reader"],
)
def test_unread_methods_are_found(texts, dead, unread):
    # again's read of itself never counts; field and __len__ are never candidates
    trees = {"planted": ast.parse(PLANTED_CLASS)}
    found = _unread_methods(trees, {"planted": ["K"]}, texts, frozenset(dead))
    assert found == {f"planted.K.{name}" for name in unread}


def _outermost_users(tree: ast.Module, is_use):
    """Names of the functions of ``tree``, module-level ones and methods, holding a node for which ``is_use`` holds.

    A use inside a nested function counts for the function around it.
    """
    found, nodes = set(), list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.ClassDef):
            nodes.extend(node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(map(is_use, ast.walk(node))):
            found.add(node.name)
    return found


def _users(is_use):
    """``module.function`` for each function in ``src/dpdist`` that ``_outermost_users`` finds."""
    found = set()
    for stem in SUBMODULES:
        tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
        found |= {f"{stem}.{name}" for name in _outermost_users(tree, is_use)}
    return found


def _calls(name):
    """Whether a node calls ``name`` bare or as an attribute."""
    return lambda node: isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == name


def _reads(attr):
    """Whether a node reads the attribute ``attr``, as a call or an alias does."""
    return lambda node: isinstance(node, ast.Attribute) and node.attr == attr


def _execution_builders():
    """``module.function`` for each function in ``src/dpdist`` whose body calls ``Execution(``."""
    return _users(_calls("Execution"))


def test_only_one_function_builds_an_execution():
    assert _execution_builders() == {"distributed._execution"}, "build every Execution through distributed._execution"


@pytest.mark.parametrize(
    "source,found",
    [
        ("def f():\n    def g():\n        p.send(1, 2)\n", {"f"}),
        ("class C:\n    def m(self):\n        send = self.p.send\n        return send\n", {"m"}),
        ("def f(send):\n    return send(1)\n\ndef g():\n    return p.sends\n", set()),
    ],
    ids=["nested", "alias-in-method", "bare-name-and-other-attribute"],
)
def test_send_readers_are_found(source, found):
    assert _outermost_users(ast.parse(source), _reads("send")) == found


def test_only_the_checked_sends_call_send():
    assert _users(_reads("send")) == {"distributed._checked_sends", "distributed.consistent_probability"}, (
        "call Protocol.send through distributed._checked_sends, which checks the receivers"
    )


@pytest.mark.parametrize(
    "source,found",
    [
        ("def f():\n    return [p.answer(1, (), None) for p in ps]\n", {"f"}),
        ("class C:\n    def m(self):\n        answer = self.party.answer\n        return answer\n", {"m"}),
        ("def f(answer):\n    return answer(1)\n\ndef g():\n    return view.answers\n", set()),
    ],
    ids=["comprehension", "alias-in-method", "bare-name-and-other-attribute"],
)
def test_answer_readers_are_found(source, found):
    assert _outermost_users(ast.parse(source), _reads("answer")) == found


def test_only_the_interactive_replay_calls_answer():
    # with the .send guard, a third replay loop of either model fails here
    assert _users(_reads("answer")) == {"local_model._replay_interactive"}, (
        "call InteractiveParty.answer through local_model._replay_interactive"
    )


def _logs_a_quotient(node):
    """Whether a node calls ``log`` (bare or as ``math.log``) on a division."""
    return _calls("log")(node) and bool(node.args) and isinstance(node.args[0], ast.BinOp) and isinstance(node.args[0].op, ast.Div)


@pytest.mark.parametrize(
    "source,found",
    [
        ("def f(p, q):\n    return {k: math.log(p[k] / q[k]) for k in p}\n", {"f"}),
        ("class C:\n    def m(self):\n        return log(self.a / self.b)\n", {"m"}),
        ("def f(r):\n    return math.log(r)\n\ndef g(a, b):\n    return math.log(a) / b\n", set()),
    ],
    ids=["comprehension", "bare-log-in-method", "log-of-a-name-and-quotient-of-a-log"],
)
def test_log_quotients_are_found(source, found):
    assert _outermost_users(ast.parse(source), _logs_a_quotient) == found


def test_only_privacy_loss_takes_a_log_ratio_in_audit():
    # round_budget's ln(ell / beta) is a round count over a tail bound, not a probability ratio
    tree = ast.parse((SRC / "audit.py").read_text(encoding="utf-8"))
    assert _outermost_users(tree, _logs_a_quotient) == {"privacy_loss", "round_budget"}, (
        "take exact log probability ratios through audit.privacy_loss"
    )


def test_only_the_two_replays_check_that_every_channel_is_used():
    # a third used-channel mechanism, such as a verdict cached on memo entries, fails here
    assert _users(_calls("_check_all_used")) == {"distributed._replay", "distributed.compile_to_local"}, (
        "check that a run used every declared channel through distributed._check_all_used, once per run"
    )


def test_only_the_channel_checks_raise_obliviousness_violations():
    assert _users(_calls("ObliviousnessViolationError")) == {
        "distributed._checked_sends", "distributed._check_all_used"
    }, "raise ObliviousnessViolationError from distributed._checked_sends or distributed._check_all_used"


_CATCH_ALL = {"Exception", "BaseException"}


def _catch_all_handlers(tree: ast.Module):
    """Line numbers of the handlers that are bare or name ``Exception`` or ``BaseException``, alone or in a tuple."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or getattr(t, "id", getattr(t, "attr", None)) in _CATCH_ALL for t in caught):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "source,lines",
    [
        ("try:\n    pass\nexcept:\n    pass\n", [3]),
        ("try:\n    pass\nexcept Exception:\n    pass\n", [3]),
        ("try:\n    pass\nexcept (ValueError, builtins.BaseException) as exc:\n    pass\n", [3]),
        ("try:\n    pass\nexcept (ValueError, TypeError):\n    pass\nexcept KeyError:\n    pass\n", []),
    ],
    ids=["bare", "exception", "base-in-tuple", "named"],
)
def test_catch_all_handlers_are_found(source, lines):
    assert _catch_all_handlers(ast.parse(source)) == lines


@pytest.mark.parametrize("stem", SUBMODULES)
def test_no_catch_all_handlers(stem):
    tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
    assert _catch_all_handlers(tree) == [], f"{stem}.py catches every exception: name the ones it expects"


PROTOCOL_LAYERS = ["audit", "core", "distributed", "fixtures", "local_model", "mechanisms", "seeding"]


def _handler_sites(tree: ast.Module):
    """(enclosing top-level definition, line) of every ``except`` clause; ``<module>`` outside any definition."""
    sites = []
    for node in tree.body:
        name = getattr(node, "name", "<module>")
        sites += [(name, h.lineno) for h in ast.walk(node) if isinstance(h, ast.ExceptHandler)]
    return sites


@pytest.mark.parametrize(
    "source,sites",
    [
        ("try:\n    pass\nexcept ImportError:\n    pass\n", [("<module>", 3)]),
        ("def f():\n    def g():\n        try:\n            pass\n        except KeyError:\n            pass\n", [("f", 5)]),
        ("class C:\n    def m(self):\n        try:\n            pass\n        except ValueError:\n            pass\n", [("C", 5)]),
        ("def f():\n    try:\n        pass\n    finally:\n        pass\n", []),
    ],
    ids=["module", "nested-function", "method", "finally-only"],
)
def test_handler_sites_are_found(source, sites):
    assert _handler_sites(ast.parse(source)) == sites


@pytest.mark.parametrize("stem", PROTOCOL_LAYERS)
def test_protocol_layers_catch_nothing(stem):
    tree = ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8"))
    assert _handler_sites(tree) == [], f"{stem}.py handles an exception: let it propagate as raised"


def test_only_the_cli_and_the_batch_pool_handle_exceptions():
    sites = {
        f"{stem}.{name}"
        for stem in SUBMODULES
        for name, _ in _handler_sites(ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8")))
    }
    assert {site for site in sites if not site.startswith("cli.")} == {"experiments._batched"}


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


# The modules that `experiments` registers at import and executes on first
# use, each after the ones it executes by importing from them.
LAZY = ["local_model", "audit", "distributed", "fixtures"]
# A fresh interpreter's `executed()`: which of LAZY have executed (type()
# reads no attribute, so it loads nothing); KeyError if one is unregistered.
EXECUTED = (
    "import types\n"
    "def executed():\n"
    f"    return [m for m in {LAZY!r} if type(sys.modules['dpdist.' + m]) is types.ModuleType]\n"
)


def test_import_loads_numpy_and_stdlib_only():
    """``import dpdist.cli`` loads numpy and the stdlib, and registers the LAZY modules without executing them."""
    report = _fresh_python(
        "import json, sys\n"
        + EXECUTED
        + "before = set(sys.modules)\n"
        "import dpdist, dpdist.cli\n"
        "print(json.dumps({'file': dpdist.__file__,\n"
        "    'scipy': sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),\n"
        "    'futures': 'concurrent.futures' in sys.modules,\n"
        "    'executed': executed(),\n"
        "    'new': sorted({m.split('.')[0] for m in set(sys.modules) - before})}))\n"
    )
    assert Path(report["file"]).parent == SRC
    assert report["scipy"] == []
    assert not report["futures"], "import dpdist.cli loads concurrent.futures; the batched experiments load it"
    assert report["executed"] == [], "import dpdist.cli executes modules the registry does not read"
    assert "numpy" in report["new"]
    foreign = [m for m in report["new"] if m not in ("dpdist", "numpy") and m not in sys.stdlib_module_names]
    assert foreign == [], f"import dpdist.cli loads third-party modules {foreign}"


def test_entry_points_execute_only_the_modules_they_read():
    """``dpdist list`` and a laplace-tails run execute no LAZY module; an rr-sum-error run only ``local_model``."""
    report = _fresh_python(
        "import contextlib, io, json, sys\n"
        + EXECUTED
        + "from dpdist.cli import main\n"
        "seen = []\n"
        "for argv in (['list'], ['run', '--experiment', 'laplace-tails', '--trials', '2000'],\n"
        "             ['run', '--experiment', 'rr-sum-error', '--n', '100', '--trials', '50']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0\n"
        "    seen.append(executed())\n"
        "print(json.dumps(seen))\n"
    )
    assert report == [[], [], ["local_model"]]


@pytest.mark.parametrize(
    "form",
    [
        "import dpdist.{m}\nmod = dpdist.{m}\n",
        "from dpdist import {m} as mod\n",
        "mod = importlib.import_module('dpdist.{m}')\n",
    ],
    ids=["import-attribute", "from-import", "import_module"],
)
def test_lazy_modules_import_in_every_form(form):
    """After ``import dpdist.cli`` each LAZY module, still unexecuted, imports in ``form`` as the registered module.

    Taken in LAZY's order, each module is unexecuted when it is imported.
    """
    steps = "".join(
        f"lazy = '{m}' not in executed()\n"
        + form.format(m=m)
        + f"found.append([lazy, mod is sys.modules['dpdist.{m}'] is dpdist.{m}, "
        "sorted(n for n in mod.__all__ if hasattr(mod, n))])\n"
        for m in LAZY
    )
    report = _fresh_python(
        "import importlib, json, sys\n" + EXECUTED + "import dpdist.cli\nfound = []\n" + steps
        + "print(json.dumps(found))\n"
    )
    assert report == [[True, True, sorted(importlib.import_module(f"dpdist.{m}").__all__)] for m in LAZY]


@pytest.mark.parametrize("experiment", ["v-bounds", "hoeffding-tail", "chernoff-tail", "laplace-tails"])
def test_batched_first_run_matches_this_process(experiment):
    """Each thread-pooled experiment, run first after ``import dpdist.cli``, writes this process's CSV.

    Its trials span two batches, so on a host with two or more CPUs the
    batches run on pool threads while the LAZY modules are in the state
    the first run leaves them.
    """
    kw = dict(experiment=experiment, seed=3, trials=_BATCH + 1000)
    if experiment != "laplace-tails":
        kw["n"] = 400
    report = _fresh_python(
        "import json\n"
        "import dpdist.cli\n"
        "from dpdist.experiments import ExperimentConfig\n"
        f"print(json.dumps(dpdist.cli.run_experiment(ExperimentConfig(**{kw!r}))))\n"
    )
    assert report == run_experiment(ExperimentConfig(**kw))


CHI2_CONFIGS = [
    dict(experiment="symmetry", n=40, trials=300, seed=5),
    dict(experiment="rr-distributed", n=6, trials=300, seed=5),  # its table's chi2 is 0.33, below 2.2
]
# the benchmark's chi-squared jobs at seed 1 (bench/workloads.py)
BENCH_CHI2_CONFIGS = [
    dict(experiment="symmetry", n=100, trials=2500, seed=1100),
    dict(experiment="rr-distributed", n=16, trials=1000, seed=1000),
]
DOF_41_TABLE = [list(range(1, 43)), list(range(42, 0, -1))]
LOW_CHI2_TABLE = [[2, 5], [5, 2]]  # chi2 8/7 after Yates' correction


def _scipy_loads(steps):
    """Run ``steps`` in a fresh interpreter; return (loaded, outputs).

    A step is ("run", config kwargs), giving that run's CSV, or ("rows", a
    table), giving its ``_chi2_rows(0, table)``.  ``loaded`` says whether
    scipy.special and scipy.stats are loaded, before the steps and after each.
    """
    report = _fresh_python(
        "import json, sys\n"
        "import numpy as np\n"
        "from dpdist.cli import run_experiment\n"
        "from dpdist.experiments import _BATCH, ExperimentConfig, _chi2_rows\n"
        "def loaded():\n"
        "    return ['scipy.special' in sys.modules, 'scipy.stats' in sys.modules]\n"
        "seen, out = [loaded()], []\n"
        f"for kind, arg in {steps!r}:\n"
        "    out.append(run_experiment(ExperimentConfig(**arg)) if kind == 'run' else _chi2_rows(0, np.array(arg)))\n"
        "    seen.append(loaded())\n"
        "print(json.dumps({'seen': seen, 'out': out}))\n"
    )
    return report["seen"], report["out"]


def _in_this_process(steps):
    importlib.import_module("scipy.stats")
    return [
        run_experiment(ExperimentConfig(**arg)) if kind == "run" else [list(r) for r in _chi2_rows(0, np.array(arg))]
        for kind, arg in steps
    ]


def test_lazy_scipy_load_keeps_csv_bytes():
    """scipy.special loads only for a chi-squared table past dof 40 or at chi2 <= 2.2, and scipy.stats never.

    In a fresh interpreter the benchmark's chi-squared jobs and the
    ``symmetry`` config load neither; a dof-41 table then loads
    scipy.special.  In a second one, a 2x2 table with chi2 <= 2.2 loads it.
    The CSVs and rows match this process's, which has scipy.stats loaded.
    """
    first = [("run", kw) for kw in BENCH_CHI2_CONFIGS + CHI2_CONFIGS[:1]]
    first += [("rows", DOF_41_TABLE), ("run", CHI2_CONFIGS[1])]
    seen, out = _scipy_loads(first)
    assert seen == [[False, False]] * 4 + [[True, False]] * 2
    assert out == _in_this_process(first)
    second = [("rows", LOW_CHI2_TABLE)]
    seen, out = _scipy_loads(second)
    assert seen == [[False, False], [True, False]]
    assert out == _in_this_process(second)


def _scipy_imports(tree: ast.Module):
    """(enclosing top-level definition or None, scipy module) for every scipy import in ``tree``."""
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, _DEFS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
                modules = [f"scipy.{a.name}" for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [(owner, m) for m in modules if m.split(".")[0] == "scipy"]
    return found


@pytest.mark.parametrize(
    "source,found",
    [
        ("import scipy\n", [(None, "scipy")]),
        ("from scipy import stats, special\n", [(None, "scipy.stats"), (None, "scipy.special")]),
        ("def f():\n    from scipy.special import chdtrc\n", [("f", "scipy.special")]),
        ("class C:\n    def g(self):\n        import scipy.stats as st\n", [("C", "scipy.stats")]),
        ("import numpy\nfrom .core import as_bits\n", []),
    ],
    ids=["bare", "from-scipy", "in-function", "in-method", "none"],
)
def test_scipy_imports_are_found(source, found):
    assert _scipy_imports(ast.parse(source)) == found


def test_scipy_is_imported_only_for_chi2():
    """Only ``experiments._chi2_rows`` imports scipy, and only ``scipy.special``."""
    found = [
        (stem, owner, module)
        for stem in MODULES
        for owner, module in _scipy_imports(ast.parse((SRC / f"{stem}.py").read_text(encoding="utf-8")))
    ]
    assert found == [("experiments", "_chi2_rows", "scipy.special")]


def test_bench_tracer_installs():
    """Every function the benchmark's tracer wraps exists, with each argument it reads by name.

    ``Tracer.install`` looks each function up by name and each counted
    argument (``trials``, ``size``, ``rows``, ``record``) up in its
    signature, so a rename or deletion in ``src/`` fails here.
    """
    report = _fresh_python(
        "import json, sys\n"
        f"sys.path.insert(0, {str(REPO / 'bench')!r})\n"
        "import dpdist.cli\n"
        "import tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "def current(mod, fn):\n"
        "    return getattr(sys.modules['dpdist.' + mod], fn)\n"
        "wrapped = [hasattr(current(mod, fn), '__wrapped__') for mod, fn, _, _ in tracing.TRACED]\n"
        "tracer.uninstall()\n"
        "restored = [not hasattr(current(mod, fn), '__wrapped__') for mod, fn, _, _ in tracing.TRACED]\n"
        "print(json.dumps({'wrapped': wrapped, 'restored': restored}))\n"
    )
    assert report["wrapped"] and all(report["wrapped"])
    assert all(report["restored"])


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


_FAILING_GIVEN = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""


def test_failing_given_reports_its_example(tmp_path):
    # the suite's settings and warning filters, on a file of its own
    (tmp_path / "test_fails.py").write_text(_FAILING_GIVEN)
    (tmp_path / "conftest.py").write_text((REPO / "tests" / "conftest.py").read_text())
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out
