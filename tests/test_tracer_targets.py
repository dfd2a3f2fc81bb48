"""The benchmark's tracer can find every function it times.

``perfbench/tracer.py`` wraps each target in the ``__dict__`` of the class
that defines it, and its cProfile cross-check tells the targets apart by
their code objects.  Moving a traced method into a shared base class, or
binding two targets to one function, breaks both; these tests say so
without a benchmark run.  The tracer file is loaded as it is, not changed.
"""

import importlib
import sys
import types
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    # compiled from its text, so that no bytecode cache is written next to it
    module = types.ModuleType("perfbench_tracer")
    code = compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH), "exec")
    exec(code, module.__dict__)
    for _, module_name, _, _ in module.TARGETS:
        importlib.import_module(module_name)
    return module


def test_every_target_resolves(tracer):
    for name, module_name, path, _ in tracer.TARGETS:
        owner = sys.modules[module_name]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            assert attr in cls.__dict__, f"{name}: {attr} is not defined in {cls_name} itself"
        else:
            assert callable(getattr(owner, path)), name


def test_target_code_keys_are_distinct(tracer):
    keys = tracer.target_code_keys()
    assert set(keys) == {name for name, *_ in tracer.TARGETS}
    assert len(set(keys.values())) == len(keys)


def test_every_target_is_a_plain_function(tracer):
    # the tracer and its cProfile cross-check read each target's own code
    # object; a decorator (functools.cache, lru_cache, ...) hides it
    for name, module_name, path, _ in tracer.TARGETS:
        fn = tracer._original(module_name, path)
        assert isinstance(fn, types.FunctionType) and not hasattr(fn, "__wrapped__"), (
            f"{name} ({module_name}.{path}) is no longer a plain function with a "
            "__code__: memoize inside the body, never wrap a target"
        )
