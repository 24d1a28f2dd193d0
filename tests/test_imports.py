"""Every name a module of the package imports is used in that module, and
every top-level function and class of the package, and every method of a
top-level class, is used by some module and entered by some CLI run.

No linter is part of the toolchain, so these are the checks that catch an
import or a helper left behind when the code using it is deleted.
"""

import ast
import json
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
    """(dotted name, node) of each top-level function and class and of each
    method of a top-level class, dunders left out, in definition order."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if (isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__"))):
                    yield f"{node.name}.{m.name}", m


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
            for dotted, node in _definitions(tree) if node.name not in used]


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


# CLI runs that between them enter every function of the package: the
# suites at n = 1 and n = 2, the classical limits, and expressions that
# reach every function of the parser and the renderer
CLI_RUNS = [
    ["verify", "--suite", "all", "--n", "1", "--cutoff", "6"],
    ["verify", "--suite", "all", "--n", "2", "--cutoff", "2"],
    ["limits", "--n", "1"], ["limits", "--n", "2"], ["limits", "--n", "3"],
    ["normalize", "--n", "2", "(1+q)^-1*z[1,1]*zs[1,1]-1/2+(z[1,2]+v)^2"],
    ["normalize", "--n", "1", "(z[1,1]-z[1,1]+2)^-1*zs[1,1]"],
    ["normalize", "--n", "1", "q^2-1/3"],
]

# functions that no CLI run enters, each with the reason it is kept
NOT_ENTERED = {
    "kernels._power_text": "used by Kernel.__repr__ only",
    "kernels._term_sort_key": "used by Kernel.__repr__ only",
}

_PROBE = """
import contextlib, io, json, sys
from qball.cli import main
runs, output = json.loads(sys.argv[1]), sys.argv[2]
codes = set()
sys.setprofile(lambda frame, event, arg:
               event == "call" and codes.add(frame.f_code))
with contextlib.redirect_stdout(io.StringIO()):
    exits = [main(run if run[0] == "normalize" else run + ["--output", output])
             for run in runs]
sys.setprofile(None)
print(json.dumps([exits, [[c.co_filename, c.co_firstlineno] for c in codes]]))
"""


def test_every_function_is_entered_by_a_cli_run(tmp_path):
    """Each non-dunder function and method of the package is entered by
    some CLI run, traced with ``sys.setprofile`` in a fresh process (so no
    cache of an earlier test hides a call).  Unlike the name check above,
    this sees a dead method that shares its name with a live one."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(CLI_RUNS),
         str(tmp_path / "report.json")],
        env=env, check=True, capture_output=True, text=True).stdout
    exits, codes = json.loads(out)
    assert exits == [0] * len(CLI_RUNS)
    entered = {(Path(path).stem, line) for path, line in codes
               if Path(path).parent == PACKAGE}
    # a code object starts at its first decorator, if it has one
    missed = {f"{path.stem}.{dotted}"
              for path in PACKAGE.glob("*.py")
              for dotted, node in _definitions(ast.parse(path.read_text()))
              if isinstance(node, ast.FunctionDef)
              and (path.stem, (node.decorator_list or [node])[0].lineno)
              not in entered}
    assert missed == set(NOT_ENTERED)


def test_cli_import_leaves_out_dataclasses_and_inspect():
    """``import qball.cli`` is every ``qball`` call's start-up; it must not
    pull in ``dataclasses``, which brings ``inspect``, ``ast`` and ``dis``."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = ("import sys, qball.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
