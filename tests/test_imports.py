"""No module of the package imports a name it never uses, or numpy.random,
and no module of the repository sets the encoder's group delay.

The repository has no linter; this is the one check of pyflakes' F401 it
needs, written with ``ast``. The re-exports of ``__init__.py`` are the
package's API, and an import whose line carries ``# noqa: F401`` is kept
on purpose (``qkd`` binds ``run`` and ``_apply_collective_noise`` for the
per-pulse oracle and the benchmark's tracer). Every draw reads the
counter-based stream of ``noise._words``, so no module refers to
``numpy.random``, whose import costs 15-20 ms and its memory. The group
delay ``EncoderSpec.dT`` is derived from the depth; ``encoder_spec_for`` is
an alias kept only for the benchmark, so nothing under ``src/``, ``tests/``
or ``demos/`` calls it.
"""

import ast
from pathlib import Path

import pytest

import timebinsim

PACKAGE = sorted(Path(timebinsim.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for folder in ("src", "tests", "demos") for p in (ROOT / folder).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import of ``source`` that nothing in it reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
    # a quoted annotation such as -> "PhotonState" reads the names in its text
    annotations = [ast.parse(text.value, mode="eval") for node in ast.walk(tree)
                   for annotation in _annotations(node) for text in ast.walk(annotation)
                   if isinstance(text, ast.Constant) and isinstance(text.value, str)]
    used = {node.id for root in (tree, *annotations) for node in ast.walk(root) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


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
              "sys.exit(pi)\n")
    assert unused_imports(source) == ["os (line 1)", "tau (line 3)", "Pattern (line 5)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


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
