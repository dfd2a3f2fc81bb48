"""Lints over the package's imports, and what a fresh interpreter imports and compiles."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flagoct
from flagoct.weyl import SIGMA3_NAMES

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


def unread_definitions(sources, readers=()):
    """The public module-level functions and classes of ``sources`` (file name
    -> text) that no module reads, as a bare name in its own module, as a name
    imported from it or as ``module.name``, and the non-dunder methods whose
    name none reads as an attribute.  What the texts ``readers`` read counts
    as read too."""
    trees = {file[: -len(".py")]: ast.parse(text) for file, text in sources.items()}
    read, attributes = set(), set()
    for module, tree in [*trees.items(), *((None, ast.parse(text)) for text in readers)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
            elif isinstance(node, ast.ImportFrom):
                # "from .poly import x" and "from flagoct.poly import x" both
                # read poly's x
                source = (node.module or "").rpartition(".")[2]
                read.update((source, alias.name) for alias in node.names)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name):
                    read.add((node.value.id, node.attr))
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") and (module, node.name) not in read:
                unread.append(f"{node.name} ({module}.py:{node.lineno})")
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    if item.name not in attributes:
                        unread.append(f"{node.name}.{item.name} ({module}.py:{item.lineno})")
    return unread


def test_every_definition_is_read_by_the_package_or_the_acceptance_gate():
    # a definition that only tests call is compiled on every cold start and
    # run by no command; the private ones are test_no_dead_private_helpers'
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    gate = (Path(__file__).resolve().parent / "test_acceptance.py").read_text(encoding="utf-8")
    unread = unread_definitions(sources, [gate])
    assert not unread, f"definitions that neither flagoct nor the acceptance tests read: {unread}"


def test_the_check_sees_an_unread_definition():
    sources = {
        "a.py": (
            "def used(): pass\n"
            "def dead(): pass\n"
            "def called(): pass\n"
            "def gated(): pass\n"
            "def shadowed(): pass\n"
            "class Box:\n"
            "    def kept(self): pass\n"
            "    def idle(self): pass\n"
            "    def __eq__(self, other): pass\n"
            "used()\n"
        ),
        "b.py": (
            "from . import a\n"
            "from .a import Box\n"
            "class Table:\n"
            "    def shadowed(self): pass\n"
            "a.called()\n"
            "Table().shadowed()\n"
            "Box().kept()\n"
        ),
    }
    assert unread_definitions(sources, ["from flagoct.a import gated\n"]) == [
        "dead (a.py:2)", "shadowed (a.py:5)", "Box.idle (a.py:8)",
    ]


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


# Run in a fresh interpreter: import flagoct.cli, note whether fractions is
# loaded, run main(argv) when argv is given, and report the flagoct modules
# whose code has run and which of dataclasses and inspect are loaded.  A
# module the package registers lazily stays a subclass of ModuleType until an
# attribute of it is first read.
COMMAND_PROBE = """
import contextlib, io, json, sys, types
import flagoct.cli
fractions = "fractions" in sys.modules
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        flagoct.cli.main(argv)
print(json.dumps({
    "compiled": sorted(n for n, m in sys.modules.items()
                       if n.partition(".")[0] == "flagoct" and type(m) is types.ModuleType),
    "stdlib": sorted({"dataclasses", "inspect"} & set(sys.modules)),
    "fractions": fractions,
}))
"""

EVERY_MODULE = {"flagoct"} | {f"flagoct.{path.stem}" for path in SRC.glob("*.py")} - {"flagoct.__init__"}


def fresh_python(*args, check=True):
    """Run a fresh interpreter that imports flagoct from this tree."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=check)


def run_command_probe(argv):
    result = json.loads(fresh_python("-c", COMMAND_PROBE, json.dumps(argv)).stdout)
    return set(result["compiled"]), result["stdlib"], result["fractions"]


def modules(*names):
    return {"flagoct"} | {f"flagoct.{name}" for name in names}


# what ``import flagoct.cli`` compiles, and what building its parser adds:
# the suite names of the registry, and the degree cap and the ring names of gkm
CLI_IMPORT = modules("cli", "poly", "scaled")
PARSER = CLI_IMPORT | modules("suites", "report", "gkm", "cohomology", "weyl")


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # dataclasses pulls in inspect, dis, ast and tokenize and runs exec for
    # each generated method: tens of milliseconds of every cold start.  A
    # fresh interpreter also sees a module that imports them indirectly.
    # Nor does the import compile more than the command line and the
    # polynomials; these load fractions, which the benchmark's tracer reads
    # right after the import
    compiled, stdlib, fractions = run_command_probe([])
    assert stdlib == []
    assert compiled == CLI_IMPORT
    assert fractions


@pytest.mark.parametrize(
    "argv, compiled",
    [
        # neither ktheory, groebner, octonion, jordan, parsing nor another
        # suite's declarations
        (["verify", "gkm", "--format", "json"], PARSER | modules("gkm_checks")),
        (["verify", "all", "--format", "json"], EVERY_MODULE - {"flagoct.parsing"}),
        (["gkm-check", "--ring", "Hb", "--file", "TUPLE"], PARSER | modules("parsing", "ktheory")),
        (["expand", "y1 + y2^-1", "--ring", "RT"], PARSER | modules("parsing", "ktheory")),
        (["verify", "octonion"], PARSER | modules("octonion_checks", "octonion")),
        (["verify", "ktheory"], PARSER | modules("ktheory_checks", "ktheory")),
        (["verify", "jordan"], PARSER | modules("jordan_checks", "jordan", "octonion")),
    ],
    ids=[
        "verify gkm", "verify all", "gkm-check", "expand", "verify octonion", "verify ktheory",
        "verify jordan",
    ],
)
def test_each_command_compiles_only_the_modules_it_runs(tmp_path, argv, compiled):
    tuple_file = tmp_path / "tuple.json"
    tuple_file.write_text(json.dumps({"entries": {name: "0" for name in SIGMA3_NAMES}}))
    argv = [str(tuple_file) if arg == "TUPLE" else arg for arg in argv]
    assert run_command_probe(argv)[:2] == (compiled, [])


def test_loading_every_module_builds_no_fraction():
    # a module body runs inside the first request that reads the module, so
    # a Fraction built there would be counted against that request
    probe = (
        "import fractions, importlib, sys\n"
        "built = []\n"
        "new = fractions.Fraction.__new__\n"
        "def counting(cls, *args, **kwargs):\n"
        "    built.append(args)\n"
        "    return new(cls, *args, **kwargs)\n"
        "fractions.Fraction.__new__ = staticmethod(counting)\n"
        "for name in sys.argv[1:]:\n"
        "    vars(importlib.import_module(name))  # reading an attribute loads it\n"
        "print(built)\n"
    )
    out = fresh_python("-c", probe, *sorted(EVERY_MODULE))
    assert out.stdout.strip() == "[]", out.stdout


def test_python_m_flagoct_cli_writes_nothing_to_stderr():
    # runpy warns on stderr when the module it runs was imported before it
    out = fresh_python("-m", "flagoct.cli", "verify", "gkm", "--format", "json", check=False)
    assert (out.returncode, out.stderr) == (0, "")
    assert json.loads(out.stdout)["suite"] == "gkm"
