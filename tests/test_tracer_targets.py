"""The benchmark's tracer can find every function it times.

``perfbench/tracer.py`` wraps each target in the ``__dict__`` of the class
that defines it, and its cProfile cross-check tells the targets apart by
their code objects.  Moving a traced method into a shared base class, or
binding two targets to one function, breaks both; these tests say so
without a benchmark run.  The tracer file is loaded as it is, not changed.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "perfbench" / "tracer.py"
RUN_PATH = ROOT / "perfbench" / "run.py"
STREAM_PATH = ROOT / "perfbench" / "stream.py"


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


@pytest.mark.parametrize(
    "suite, module_name, cls_name",
    [("jordan", "flagoct.jordan", "LinearOperator27"), ("roots", "flagoct.weyl", "WeylElement")],
)
def test_suites_multiply_through_the_traced_products(monkeypatch, suite, module_name, cls_name):
    # jordan.op27_mul_calls and weyl.element_mul_calls must stay above 0 on
    # verify all: a fast path that bypassed __mul__ would leave its timing
    # untraced
    from flagoct.suites import run_suite

    cls = getattr(importlib.import_module(module_name), cls_name)
    original = cls.__mul__
    calls = []

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(cls, "__mul__", counting)
    assert run_suite(suite, seed=0).passed
    assert calls


def test_the_tracer_finds_its_targets_after_importing_only_the_cli():
    # the benchmark's workers install the tracer right after ``import
    # flagoct.cli``, so every target module must be in sys.modules by then.
    # The fixture above imports them itself and would not notice
    probe = (
        "import contextlib, io, json, sys, types\n"
        "import flagoct.cli\n"
        "tracer = types.ModuleType('perfbench_tracer')\n"
        "path = sys.argv[1]\n"
        "with open(path, encoding='utf-8') as fh:\n"
        "    exec(compile(fh.read(), path, 'exec'), tracer.__dict__)\n"
        "t = tracer.Tracer()\n"
        "t.install()\n"
        "# every call of the two functions' own code, however it was reached\n"
        "codes = {sys.modules['flagoct.gkm'].check_membership.__wrapped__.__code__: 'gkm.check_membership_calls',\n"
        "         sys.modules['flagoct.suites'].suite_gkm.__wrapped__.__code__: 'suites.gkm_calls'}\n"
        "profiled = dict.fromkeys(codes.values(), 0)\n"
        "def profile(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code in codes:\n"
        "        profiled[codes[frame.f_code]] += 1\n"
        "sys.setprofile(profile)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = flagoct.cli.main(['verify', 'gkm', '--format', 'json'])\n"
        "sys.setprofile(None)\n"
        "t.uninstall()\n"
        "print(json.dumps({'code': code, 'metrics': tracer.layer_metrics(t.snapshot()), 'profiled': profiled}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", probe, str(TRACER_PATH)],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout)
    assert result["code"] == 0
    counted = (
        "poly.mul_calls", "poly.substitute_calls", "cohomology.matrix_rank_calls", "scalar.fraction_new",
        "gkm.check_membership_calls", "suites.gkm_calls",
    )
    assert all(result["metrics"][name] > 0 for name in counted), {n: result["metrics"][n] for n in counted}
    # the tracer wraps the suite function and check_membership where the
    # registry and gkm define them; a module loaded after it installs that
    # bound either by name would call the original past the wrapper
    assert {name: result["metrics"][name] for name in result["profiled"]} == result["profiled"]


def must_be_nonzero():
    """``MUST_BE_NONZERO`` of ``perfbench/run.py``, read from its text
    without running it."""
    tree = ast.parse(RUN_PATH.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["MUST_BE_NONZERO"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no MUST_BE_NONZERO")


def test_the_stream_reaches_every_gated_layer(tmp_path):
    # a traced membership-stream run fails where a layer that the benchmark
    # lists for it reads 0; one warm-up block and one timed block, run as
    # perfbench/worker.py runs them, show that here first
    gated = must_be_nonzero()["membership-stream"]
    probe = (
        "import contextlib, io, json, sys, types\n"
        "import flagoct.cli\n"
        "def load(name, path):\n"
        "    module = sys.modules[name] = types.ModuleType(name)\n"
        "    with open(path, encoding='utf-8') as fh:\n"
        "        exec(compile(fh.read(), path, 'exec'), module.__dict__)\n"
        "    return module\n"
        "tracer = load('perfbench_tracer', sys.argv[1])\n"
        "stream = load('perfbench_stream', sys.argv[2])\n"
        "warmup = stream.generate(1_000_003, 1, sys.argv[3], 'warm')\n"
        "timed = stream.generate(0, 1, sys.argv[3], 'req')\n"
        "def run(requests):\n"
        "    failed = 0\n"
        "    for request in requests:\n"
        "        out, err = io.StringIO(), io.StringIO()\n"
        "        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "            code = flagoct.cli.main(list(request.argv))\n"
        "        failed += not stream.judge(request, code, out.getvalue(), err.getvalue())\n"
        "    return failed\n"
        "t = tracer.Tracer()\n"
        "t.install()\n"
        "failed = run(warmup)\n"
        "t.reset()\n"
        "failed += run(timed)\n"
        "metrics = tracer.layer_metrics(t.snapshot())\n"
        "t.uninstall()\n"
        "print(json.dumps({'failed': failed, 'metrics': metrics}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run(
        [sys.executable, "-c", probe, str(TRACER_PATH), str(STREAM_PATH), str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout)
    assert result["failed"] == 0
    assert gated and {name: result["metrics"][name] for name in gated if not result["metrics"][name] > 0} == {}
