"""Lint: every name a flagoct module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import flagoct

SRC = Path(flagoct.__file__).resolve().parent


def imported_names(tree):
    """(name, line) of every name an import statement binds, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def used_names(tree):
    """Every name the module reads, quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a forward reference such as "Polynomial" or "Optional[Node]"
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    exempt = set(flagoct.__all__) if path.name == "__init__.py" else set()
    used = used_names(tree)
    unused = [
        f"{name} (line {line})"
        for name, line in imported_names(tree)
        if name not in used and name not in exempt
    ]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from typing import Dict, List\n"
        "import os.path\n"
        "def f(x: 'List[int]') -> None:\n"
        "    from math import comb\n"
        "    return os.sep\n"
    )
    used = used_names(tree)
    assert [n for n, _ in imported_names(tree) if n not in used] == ["Dict", "comb"]


def private_definitions(tree):
    """(name, line) of every module-level _private function or class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                yield node.name, node.lineno


def read_names(tree):
    """Every name the module reads: loaded names, attributes and the names
    it imports from other modules."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def dead_private_helpers(sources):
    """The module-level private functions and classes of ``sources`` (file
    name -> text) that none of them reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return [
        f"{name} ({file}:{line})"
        for file, tree in trees.items()
        for name, line in private_definitions(tree)
        if name not in read
    ]


def test_no_dead_private_helpers():
    # a helper nothing calls still costs its compile on every cold start
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    dead = dead_private_helpers(sources)
    assert not dead, f"private helpers that no flagoct module reads: {dead}"


def test_the_check_sees_a_dead_private_helper():
    sources = {
        "a.py": "def _used(): pass\ndef _dead(): pass\nclass _Gone: pass\ndef public(): pass\n",
        "b.py": "from .a import _used\nimport c\nc._called()\n",
        "c.py": "def _called(): pass\ndef __getattr__(name): pass\n",
    }
    assert dead_private_helpers(sources) == ["_dead (a.py:2)", "_Gone (a.py:3)"]
