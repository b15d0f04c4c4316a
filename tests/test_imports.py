"""Every name a module of the package imports is read in that module: an
import that nothing reads is dead code that still costs its load. Names a
module lists in __all__ (the package's re-exports) count as read. And every
function and class the package defines is read by the program, its
benchmark or its demos, not by the tests alone."""
import ast
import re
from pathlib import Path

import pytest

import flowtrack

MODULES = sorted(Path(flowtrack.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent
#: The sources whose reads keep a definition alive: src/, perfbench/ and
#: demos/, their test modules aside.
READERS = sorted(path for top in ("src", "perfbench", "demos")
                 for path in (ROOT / top).rglob("*.py")
                 if not path.name.startswith("test_"))


def unread_imports(source: str) -> list[str]:
    """The names source binds by import and never reads, in order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0]
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def defined_names(source: str) -> list[str]:
    """The functions and classes source defines, at any depth; dunders
    aside."""
    return [n.name for n in ast.walk(ast.parse(source))
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
            and not (n.name.startswith("__") and n.name.endswith("__"))]


def read_names(source: str) -> set[str]:
    """The names source reads: each loaded Name, each Attribute's name, and
    each part of a string constant that is a dotted or colon path, such as
    a hook's "module:Class" and method name or an __all__ entry; a
    docstring reads nothing."""
    tree = ast.parse(source)
    docstrings = {id(n.body[0].value) for n in ast.walk(tree)
                  if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                    ast.AsyncFunctionDef))
                  and n.body and isinstance(n.body[0], ast.Expr)}
    read = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and id(n) not in docstrings and re.fullmatch(r"[\w.:]+", n.value)):
            read.update(re.split(r"[.:]", n.value))
    return read


def test_the_check_finds_an_unread_definition():
    source = ('"""gone and caller, as a docstring names them."""\n'
              "class A:\n"
              "    def __init__(self): pass\n"
              "    def gone(self): pass\n"
              "    def used(self): return helper()\n"
              "def helper(): pass\n"
              "def hooked(): pass\n"
              "def caller(a): return a.used()\n"
              "HOOKS = ('pkg.mod:A', 'hooked', 'not a path')\n")
    read = read_names(source)
    assert sorted(n for n in defined_names(source) if n not in read) == [
        "caller", "gone"]


def test_every_definition_is_read():
    read = set().union(*(read_names(path.read_text()) for path in READERS))
    assert [f"{path.name}:{name}" for path in MODULES
            for name in defined_names(path.read_text())
            if name not in read] == []


def test_the_check_finds_an_unread_import():
    source = ("from __future__ import annotations\n"
              "import os, os.path\nimport numpy as np\n"
              "from a import b, c as d\nfrom e import f\n"
              "__all__ = ['f']\n"
              "def g(x: d) -> None:\n    return np.sum(os.sep)\n")
    assert unread_imports(source) == ["b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []
