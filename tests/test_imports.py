"""No module of the repository imports a name it never uses, no module of
the package imports numpy.random, and no module sets the encoder's group delay.

The repository has no linter; this is the one check of pyflakes' F401 it
needs, written with ``ast``, over every module of ``src/``, ``tests/`` and
``demos/``. Its twin for definitions: every private name a package module
defines at module level is read somewhere in ``src/``, ``tests/``,
``demos/`` or ``perfbench/``, so a table or helper that lost its last
reader shows. The re-exports of ``__init__.py`` are the package's API, and an
import whose line carries ``# noqa: F401`` is kept on purpose (``qkd``
binds ``run`` and ``_apply_collective_noise`` for the per-pulse oracle and
the benchmark's tracer); such a line binds one name, or the check reports
it, since the exemption would hide every other name on it. Every draw
reads the counter-based stream of ``noise._words``, so no package module
refers to ``numpy.random``, whose import costs 15-20 ms and its memory.
The group delay ``EncoderSpec.dT`` is derived from the depth;
``encoder_spec_for`` is an alias kept only for the benchmark, so nothing
under ``src/``, ``tests/`` or ``demos/`` calls it.
"""

import ast
from pathlib import Path

import pytest

import timebinsim

PACKAGE = sorted(Path(timebinsim.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for folder in ("src", "tests", "demos") for p in (ROOT / folder).rglob("*.py"))
READERS = SOURCES + sorted((ROOT / "perfbench").rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import of ``source`` that nothing in it reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound, exempt = {}, {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    exempt.setdefault(alias.lineno, []).append(name)
                else:
                    bound[name] = alias.lineno
    # a quoted annotation such as -> "PhotonState" reads the names in its text
    annotations = [ast.parse(text.value, mode="eval") for node in ast.walk(tree)
                   for annotation in _annotations(node) for text in ast.walk(annotation)
                   if isinstance(text, ast.Constant) and isinstance(text.value, str)]
    used = {node.id for root in (tree, *annotations) for node in ast.walk(root) if isinstance(node, ast.Name)}
    # a noqa exempts one name; on a line of several it would hide the others
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used] + \
        [f"{', '.join(names)} (line {line}: one noqa, {len(names)} names)"
         for line, names in exempt.items() if len(names) > 1]


def _annotations(node: ast.AST) -> list:
    """The annotations a function signature or an annotated assignment carries."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = node.args
        every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        return [a.annotation for a in every if a is not None and a.annotation is not None] + \
            ([node.returns] if node.returns is not None else [])
    return [node.annotation] if isinstance(node, ast.AnnAssign) else []


def test_the_check_finds_an_unused_import():
    source = ("import os\nimport sys\nfrom math import pi, tau\nfrom json import dumps  # noqa: F401\n"
              "from re import Match, Pattern\n"
              "def f(x: 'Match') -> str:\n    return 'Pattern'\n"
              "sys.exit(pi)\n"
              "from json import (loads,  # noqa: F401\n    load)\nfrom csv import reader, writer as w  # noqa: F401\n")
    assert unused_imports(source) == ["os (line 1)", "tau (line 3)", "Pattern (line 5)", "load (line 10)",
                                      "reader, w (line 11: one noqa, 2 names)"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source: str) -> dict[str, int]:
    """Name -> line of each private name (one leading underscore) that ``source``
    binds at module level by a def, a class or an assignment."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [(name.id, name.lineno) for target in targets for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            bound = []
        found.update((name, line) for name, line in bound if name.startswith("_") and not name.startswith("__"))
    return found


def names_read(source: str) -> set[str]:
    """Every name ``source`` loads, reads as an attribute or imports from a module."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_the_check_finds_an_unread_private_name():
    source = ("_A = 1\n_B, (_C, d) = 2, (3, 4)\n_E: int = _A\n__all__ = []\n"
              "def _f():\n    _local = 5\n    return _local\nclass _G:\n    _h = 6\n"
              "def g():\n    return mod._C\n")
    defined = private_definitions(source)
    assert defined == {"_A": 1, "_B": 2, "_C": 2, "_E": 3, "_f": 5, "_G": 8}
    assert sorted(name for name in defined if name not in names_read(source)) == ["_B", "_E", "_G", "_f"]
    assert "_B" in names_read("from .m import _B\n")


def test_every_private_module_level_name_is_read():
    read = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in READERS))
    unread = {p.name: sorted(name for name in private_definitions(p.read_text(encoding="utf-8")) if name not in read)
              for p in PACKAGE}
    assert {module: names for module, names in unread.items() if names} == {}


def numpy_random_references(source: str) -> list[int]:
    """The lines of ``source`` that import ``numpy.random`` or read ``np.random`` or ``numpy.random``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(alias.name == "numpy.random" or alias.name.startswith("numpy.random.")
                      for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = module == "numpy.random" or module.startswith("numpy.random.") or (
                module == "numpy" and any(alias.name == "random" for alias in node.names))
        else:
            hit = (isinstance(node, ast.Attribute) and node.attr == "random"
                   and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
        if hit:
            found.append(node.lineno)
    return sorted(found)


def test_the_check_finds_numpy_random():
    source = ("import numpy as np\nimport numpy.random\nfrom numpy.random import default_rng\n"
              "from numpy import random, pi\nimport random\n"
              "x = np.random.default_rng(0)\ny = numpy.random\nz = np.pi + random.random()\n")
    assert numpy_random_references(source) == [2, 3, 4, 6, 7]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_module_refers_to_numpy_random(path):
    assert numpy_random_references(path.read_text(encoding="utf-8")) == []


def group_delay_settings(source: str) -> list[int]:
    """The lines of ``source`` that call ``encoder_spec_for`` or pass ``dT=`` to ``EncoderSpec``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "encoder_spec_for" or (
                    name == "EncoderSpec" and any(keyword.arg == "dT" for keyword in node.keywords)):
                found.append(node.lineno)
    return sorted(found)


def test_the_check_finds_a_set_group_delay():
    source = ("from timebinsim import EncoderSpec, circuits, encoder_spec_for\n"
              "a = encoder_spec_for(3)\nb = circuits.encoder_spec_for(3, None)\n"
              "c = EncoderSpec(1, dT=64)\nd = circuits.EncoderSpec(stages=2, dT=8)\n"
              "e = EncoderSpec(1, convention=None)\nf = encoder_spec_for\ng = dict(dT=64)\n")
    assert group_delay_settings(source) == [2, 3, 4, 5]


def test_no_module_sets_the_group_delay():
    assert len(SOURCES) > 20  # the three folders were found
    found = {str(p.relative_to(ROOT)): group_delay_settings(p.read_text(encoding="utf-8")) for p in SOURCES}
    assert {path: lines for path, lines in found.items() if lines} == {}
