"""Lint: every name a flagoct module imports is used in that module."""

import ast
import os
import subprocess
import sys
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


def package_imports(sources):
    """The intra-package import graph of ``sources`` (file name -> text): each
    module to the sibling modules it imports, at any depth."""
    modules = {name[: -len(".py")] for name in sources}
    graph = {}
    for file, text in sources.items():
        edges = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # "from .poly import x" names the module; "from . import poly"
                # names it in its aliases
                names = [node.module] if node.module else [a.name for a in node.names]
                edges.update(n for n in names if n in modules)
        graph[file[: -len(".py")]] = edges
    return graph


def import_cycle(graph):
    """One cycle of ``graph`` as a list of modules, first repeated last, or
    None when it has none."""
    state = {}  # module -> "open" while on the search path, "done" after

    def visit(path):
        state[path[-1]] = "open"
        for dep in sorted(graph[path[-1]]):
            if state.get(dep) == "open":
                return path[path.index(dep):] + [dep]
            if dep not in state:
                found = visit(path + [dep])
                if found:
                    return found
        state[path[-1]] = "done"
        return None

    for module in sorted(graph):
        if module not in state:
            found = visit([module])
            if found:
                return found
    return None


def test_no_import_cycle():
    # a cycle forces a function-level import or an import-order dependence
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    cycle = import_cycle(package_imports(sources))
    assert cycle is None, f"flagoct modules import each other in a cycle: {' -> '.join(cycle)}"


def test_the_check_sees_an_import_cycle():
    sources = {
        "a.py": "from .b import f\n",
        "b.py": "def f():\n    from . import c\n",
        "c.py": "from .a import g\nfrom .d import h\n",
        "d.py": "import os\n",
    }
    assert package_imports(sources) == {"a": {"b"}, "b": {"c"}, "c": {"a", "d"}, "d": set()}
    assert import_cycle(package_imports(sources)) == ["a", "b", "c", "a"]
    assert import_cycle({"a": {"a"}}) == ["a", "a"]
    del sources["b.py"]
    sources["a.py"] = "from .d import h\n"
    assert import_cycle(package_imports(sources)) is None


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # dataclasses pulls in inspect, dis, ast and tokenize and runs exec for
    # each generated method: tens of milliseconds of every cold start.  A
    # fresh interpreter also sees a module that imports them indirectly
    probe = "import sys, flagoct.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", out.stdout
