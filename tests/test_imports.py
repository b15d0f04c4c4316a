"""Every name a module of the package imports is read in that module: an
import that nothing reads is dead code that still costs its load. Names a
module lists in __all__ (the package's re-exports) count as read."""
import ast
from pathlib import Path

import pytest

import flowtrack

MODULES = sorted(Path(flowtrack.__file__).parent.glob("*.py"))


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
