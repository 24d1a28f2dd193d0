"""Every name a module of the package imports is used in that module, and
every top-level function and class of the package, and every method of a
top-level class, is used by some module.

No linter is part of the toolchain, so these are the checks that catch an
import or a helper left behind when the code using it is deleted.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qball"


def unused_imports(source: str) -> list:
    """Names bound by an import and never read, in first-import order.

    A name listed in ``__all__`` counts as read, since the module exports it.
    """
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= {e.value for e in node.value.elts}
    return [name for name in bound if name not in read]


def test_unused_import_finder():
    src = ("from __future__ import annotations\n"
           "import os.path\nfrom a import b, c as d\nfrom e import f\n"
           "__all__ = ['f']\nprint(b)\n")
    assert unused_imports(src) == ["os", "d"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _definitions(tree):
    """(dotted name, name) of each top-level function and class and of each
    method of a top-level class, dunders left out, in definition order."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if (isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__"))):
                    yield f"{node.name}.{m.name}", m.name


def unreferenced_definitions(sources: dict) -> list:
    """"module.name" for every top-level function and class, and
    "module.Class.method" for every method of a top-level class but the
    dunders, of the given modules ({module: source}) that no module refers
    to by name or by attribute, in module and definition order."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level:
                used |= {alias.name for alias in node.names}
    return [f"{mod}.{dotted}" for mod, tree in trees.items()
            for dotted, name in _definitions(tree) if name not in used]


def test_unreferenced_definition_finder():
    sources = {"a": "def f():\n    return g()\n\ndef g():\n    pass\n\n"
                    "class C:\n    pass\n",
               "b": "from .a import f\n\ndef h():\n    return x.C\n"}
    assert unreferenced_definitions(sources) == ["b.h"]
    # methods count too, the dunders apart; a method is used by attribute
    sources["a"] += ("\nclass D:\n    def __init__(self):\n        self.m()\n"
                     "\n    def m(self):\n        pass\n"
                     "\n    def left(self):\n        pass\n"
                     "\n    @staticmethod\n    def s():\n        pass\n")
    sources["b"] += "\ndef k():\n    return D.s(), f\n"
    assert unreferenced_definitions(sources) == ["a.D.left", "b.h", "b.k"]


def test_every_definition_is_referenced():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_definitions(sources) == []


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """``import qball.cli`` is every ``qball`` call's start-up; it must not
    pull in ``dataclasses``, which brings ``inspect``, ``ast`` and ``dis``."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = ("import sys, qball.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
