"""The flagoct benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a flagoct source tree; flagoct is imported from
``src/`` of that tree.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the run (Python version, commit, CPUs, load average, seed).
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stream  # noqa: E402
from gauge import scale  # noqa: E402
from tracer import layer_metrics  # noqa: E402

# the workloads BENCHMARK.json names, in its order
WORKLOADS = ("verify-all", "rank-table-16", "membership-stream")

# flagoct arguments of the cold workloads (the seed is appended)
COLD = {
    "verify-all": ("verify", "all", "--format", "json"),
    "rank-table-16": ("verify", "gkm", "--degree-cutoff", "16", "--format", "json"),
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "decisions_per_s": "1/s",
    "decide_p50_ms": "ms",
    "decide_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = (
    "scalar.fraction_new",
    "octonion.mul_calls",
    "octonion.mul_s",
    "jordan.product_calls",
    "jordan.product_s",
    "jordan.hat_operator_s",
    "jordan.tilde_operator_s",
    "jordan.op27_mul_calls",
    "jordan.op27_mul_s",
    "weyl.generate_group_s",
    "weyl.group_elements",
    "weyl.element_mul_calls",
    "poly.mul_calls",
    "poly.mul_s",
    "poly.substitute_calls",
    "poly.substitute_s",
    "poly.exact_divide_calls",
    "poly.exact_divide_s",
    "poly.exact_divide_hit_ratio",
    "poly.leading_exponents_calls",
    "groebner.buchberger_s",
    "groebner.normal_form_calls",
    "cohomology.matrix_rank_calls",
    "cohomology.matrix_rank_s",
    "gkm.check_membership_calls",
    "gkm.check_membership_s",
    "gkm.free_rank_check_s",
    "gkm.realize_in_bt_s",
    "ktheory.x_character_calls",
    "ktheory.x_character_s",
    "ktheory.weyl_act_calls",
    "ktheory.weyl_act_s",
    "ktheory.char_mul_calls",
    "ktheory.char_mul_s",
    "ktheory.char_quotient_calls",
    "ktheory.char_quotient_s",
    "ktheory.char_quotient_hit_ratio",
    "ktheory.expand_x_polynomial_s",
    "ktheory.to_x_polynomial_s",
    "parsing.parse_and_evaluate_calls",
    "parsing.parse_and_evaluate_s",
    "suites.octonion_s",
    "suites.jordan_s",
    "suites.roots_s",
    "suites.cohomology_s",
    "suites.gkm_s",
    "suites.ktheory_s",
    "setup.gkm.realize_in_bt_s",
    "trace.overhead_frac",
)

# counters that must repeat exactly between two traced runs at one seed
DETERMINISTIC = tuple(
    m for m in PER_LAYER
    if m.endswith("_calls") or m in ("scalar.fraction_new", "weyl.group_elements")
)

# a layer each workload is known to use: a zero count there fails the run
MUST_BE_NONZERO = {
    "verify-all": (
        "scalar.fraction_new",
        "octonion.mul_calls",
        "jordan.product_calls",
        "jordan.op27_mul_calls",
        "weyl.element_mul_calls",
        "weyl.group_elements",
        "poly.mul_calls",
        "poly.substitute_calls",
        "poly.exact_divide_calls",
        "poly.leading_exponents_calls",
        "groebner.normal_form_calls",
        "cohomology.matrix_rank_calls",
        "gkm.check_membership_calls",
        "ktheory.x_character_calls",
        "ktheory.weyl_act_calls",
        "ktheory.char_mul_calls",
        "ktheory.char_quotient_calls",
    ),
    "rank-table-16": (
        "scalar.fraction_new",
        "poly.mul_calls",
        "poly.substitute_calls",
        "cohomology.matrix_rank_calls",
    ),
    "membership-stream": (
        "scalar.fraction_new",
        "poly.mul_calls",
        "poly.substitute_calls",
        "poly.exact_divide_calls",
        "poly.leading_exponents_calls",
        "gkm.check_membership_calls",
        "ktheory.char_mul_calls",
        "ktheory.char_quotient_calls",
        "parsing.parse_and_evaluate_calls",
    ),
}

SETUP_REPEATS = 9  # fresh interpreters importing flagoct.cli per cold run
STREAM_BLOCKS = 10  # timed requests per stream worker: 10 * len(BLOCK) = 300
WARMUP_BLOCKS = 1
CHILD_TIMEOUT_S = 150.0


class BenchError(Exception):
    pass


# -- child processes -----------------------------------------------------------------


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    wall_s: float  # launch to exit
    rss_mb: float  # peak resident set of the child
    ready_s: Optional[float] = None  # launch to the "ready" line, if any


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("FLAGOCT_SEED", None)
    return env


def run_child(argv: Sequence[str], workdir: str, wait_ready: bool = False) -> Child:
    """Run one child to completion, one at a time; kill it after the timeout.

    With ``wait_ready`` the child's stdout is a pipe, and ``ready_s`` is the
    time its first line arrived.
    """
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), stdout=subprocess.PIPE if wait_ready else out, stderr=err, env=_env()
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        ready_s, stdout = None, b""
        try:
            if wait_ready:
                stdout = proc.stdout.readline()
                ready_s = time.perf_counter() - start
                stdout += proc.stdout.read()
                proc.stdout.close()
            # wait4, not Popen.wait, to get this child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if not wait_ready:
        with open(out_path, "rb") as fh:
            stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read().decode("utf-8", "replace")
    return Child(
        proc.returncode, stdout.decode("utf-8", "replace"), stderr, wall, usage.ru_maxrss / 1024.0, ready_s
    )


# -- correctness ---------------------------------------------------------------------


def _golden() -> Dict:
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


def judge_report(workload: str, child: Child, golden: Dict) -> Tuple[int, int]:
    """(attempted, failed) checks of one verify run against the golden set.

    A check fails if its id or status differs from the golden set; every
    golden check fails if the process exits non-zero or prints no report.
    """
    expected: Dict[str, str] = golden[workload]["checks"]
    try:
        report = json.loads(child.stdout)
        got = {c["id"]: c["status"] for c in report["checks"]}
    except (ValueError, KeyError, TypeError):
        return len(expected), len(expected)
    if child.code != 0:
        return len(expected), len(expected)
    ids = set(expected) | set(got)
    failed = sum(1 for i in ids if expected.get(i) != got.get(i))
    return len(ids), failed


# -- statistics ------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: at least (1 - q) of the values lie at or above."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    samples: int = 0  # timed processes (cold) or worker passes (stream)

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {attempted} failed")


# -- cold workloads -------------------------------------------------------------------


def run_gauged(args: Sequence[str], workdir: str) -> Tuple[Child, float]:
    """Run ``worker.py gauged`` with flagoct arguments ``args``; returns the
    child and its launch-to-exit time at the reference speed (gauge.py)."""
    gauge_out = os.path.join(workdir, "gauge.json")
    with contextlib.suppress(FileNotFoundError):
        os.remove(gauge_out)
    child = run_child([sys.executable, os.path.join(HERE, "worker.py"), "gauged", gauge_out] + list(args), workdir)
    try:
        with open(gauge_out, encoding="utf-8") as fh:
            samples = json.load(fh)
    except (OSError, ValueError):
        raise BenchError(f"worker exited {child.code} without gauge samples: {child.stderr.strip()[-1000:]}")
    return child, scale(child.wall_s, samples)


def _setup_times(workdir: str) -> Tuple[List[float], List[float]]:
    """(times at the reference speed, raw times) of fresh interpreters
    importing flagoct.cli."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        child, wall = run_gauged([], workdir)
        if child.code != 0:
            raise BenchError(f"import flagoct.cli failed: {child.stderr.strip()[-500:]}")
        scaled.append(wall)
        raw.append(child.wall_s)
    return scaled, raw


def _verify_argv(workload: str, seed: int) -> List[str]:
    return list(COLD[workload]) + ["--seed", str(seed)]


def repeat(seconds: float, sample) -> list:
    """Call ``sample(i)`` at least twice, and again while the projected end of
    the next call (at the mean time per call so far) is within ``seconds``.

    Two is the floor because one verify-all process can take over half of a
    run: with a single sample, p95 would equal p50 in some runs and not in
    others, depending only on the machine's speed at the time.
    """
    results = []
    start = time.perf_counter()
    while True:
        results.append(sample(len(results)))
        elapsed = time.perf_counter() - start
        if len(results) >= 2 and elapsed + elapsed / len(results) > seconds:
            return results


def _wall_figures(walls: Sequence[float]) -> Dict[str, float]:
    return {
        "wall_s": statistics.median(walls),
        "decisions_per_s": len(walls) / sum(walls),
        "decide_p50_ms": 1000.0 * statistics.median(walls),
        "decide_p95_ms": 1000.0 * percentile(walls, 0.95),
    }


def cold_untraced(workload: str, seed: int, seconds: float, workdir: str, tally: Tally, raw: Dict) -> Dict:
    """Timings at the reference speed (gauge.py); ``raw`` receives them unscaled."""
    golden = _golden()
    setup, raw_setup = _setup_times(workdir)
    argv = _verify_argv(workload, seed)

    def sample(i: int) -> Tuple[Child, float]:
        child, wall = run_gauged(argv, workdir)
        tally.add(*judge_report(workload, child, golden), f"{workload} run {i}")
        return child, wall

    samples = repeat(seconds, sample)
    tally.samples = len(samples)
    raw.update(_wall_figures([child.wall_s for child, _ in samples]), setup_s=statistics.median(raw_setup))
    return {
        "setup_s": statistics.median(setup),
        **_wall_figures([wall for _, wall in samples]),
        "peak_rss_mb": statistics.median(child.rss_mb for child, _ in samples),
    }


def cold_traced(workload: str, seed: int, workdir: str, tally: Tally) -> Tuple[List[Dict], float, List[float]]:
    """One untraced run and two traced runs; returns (snapshots, untraced wall,
    traced walls)."""
    golden = _golden()
    argv = _verify_argv(workload, seed)
    base = run_child([sys.executable, "-m", "flagoct.cli"] + argv, workdir)
    tally.add(*judge_report(workload, base, golden), f"{workload} untraced run")
    snapshots, walls = [], []
    trace_out = os.path.join(workdir, "trace.json")
    for i in range(2):
        with contextlib.suppress(FileNotFoundError):
            os.remove(trace_out)
        child = run_child(
            [sys.executable, os.path.join(HERE, "worker.py"), "verify", trace_out] + argv,
            workdir,
        )
        tally.add(*judge_report(workload, child, golden), f"{workload} traced run {i}")
        try:
            with open(trace_out, encoding="utf-8") as fh:
                snapshots.append(json.load(fh))
        except FileNotFoundError:
            raise BenchError(f"traced {workload} exited {child.code} without a trace: {child.stderr.strip()[-1000:]}")
        walls.append(child.wall_s)
    return snapshots, base.wall_s, walls


# -- the membership stream --------------------------------------------------------------


def _stream_file(seed: int, workdir: str, blocks: int = STREAM_BLOCKS) -> str:
    """Write the tuple files and the request list; returns the list's path."""
    # the warm-up draws from its own seed so that it fills the caches that
    # every request shares without pre-computing any timed request
    warmup = stream.generate(seed + 1_000_003, WARMUP_BLOCKS, workdir, "warm")
    timed = stream.generate(seed, blocks, workdir, "req")
    path = os.path.join(workdir, "requests.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"warmup": [r.to_dict() for r in warmup], "timed": [r.to_dict() for r in timed]}, fh)
    return path


def run_stream_worker(path: str, workdir: str, flag: Optional[str], tally: Tally, what: str) -> Tuple[Dict, Child]:
    """Run one stream worker; ``flag`` is None, "--trace" or "--gauge"."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "stream", path]
    child = run_child(argv + ([flag] if flag else []), workdir, wait_ready=True)
    try:
        result = json.loads(child.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise BenchError(f"{what}: worker exited {child.code}: {child.stderr.strip()[-1000:]}")
    if child.code != 0:
        raise BenchError(f"{what}: worker exited {child.code}")
    tally.add(result["attempted"], result["failed"], what)
    return result, child


def _latency_figures(lat_ms: Sequence[float]) -> Dict[str, float]:
    return {
        "wall_s": sum(lat_ms) / 1000.0,
        "decisions_per_s": 1000.0 * len(lat_ms) / sum(lat_ms),
        "decide_p50_ms": statistics.median(lat_ms),
        "decide_p95_ms": percentile(lat_ms, 0.95),
    }


def stream_untraced(seed: int, seconds: float, workdir: str, tally: Tally, raw: Dict) -> Dict:
    """Medians over workers; the timings are at the reference speed
    (gauge.py), and ``raw`` receives the same medians unscaled."""
    path = _stream_file(seed, workdir)
    workers = repeat(
        seconds, lambda i: run_stream_worker(path, workdir, "--gauge", tally, f"stream worker {i}")
    )
    tally.samples = len(workers)
    scaled = [_latency_figures(result["scaled_ms"]) for result, _ in workers]
    unscaled = [_latency_figures(result["latencies_ms"]) for result, _ in workers]
    for name in unscaled[0]:
        raw[name] = statistics.median(figures[name] for figures in unscaled)
    raw["setup_s"] = statistics.median(child.ready_s for _, child in workers)
    metrics = {name: statistics.median(figures[name] for figures in scaled) for name in scaled[0]}
    metrics["setup_s"] = statistics.median(
        scale(child.ready_s, result["setup_gauge"]) for result, child in workers
    )
    metrics["peak_rss_mb"] = statistics.median(child.rss_mb for _, child in workers)
    return metrics


def stream_traced(seed: int, workdir: str, tally: Tally) -> Tuple[List[Dict], float, List[float], List[Dict]]:
    path = _stream_file(seed, workdir)
    base, _ = run_stream_worker(path, workdir, None, tally, "stream untraced worker")
    snapshots, walls, warm = [], [], []
    for i in range(2):
        result, _ = run_stream_worker(path, workdir, "--trace", tally, f"stream traced worker {i}")
        snapshots.append(result["trace"])
        warm.append(result["warmup_trace"])
        walls.append(result["wall_s"])
    return snapshots, base["wall_s"], walls, warm


# -- traced metrics -------------------------------------------------------------------------


def traced_metrics(workload: str, seed: int, workdir: str, tally: Tally) -> Dict[str, float]:
    if workload in COLD:
        snapshots, base_wall, walls = cold_traced(workload, seed, workdir, tally)
        warm = None
    else:
        snapshots, base_wall, walls, warm = stream_traced(seed, workdir, tally)
    runs = [layer_metrics(s) for s in snapshots]
    tally.samples = len(runs)
    for name in DETERMINISTIC:
        values = {r[name] for r in runs}
        if len(values) != 1:
            tally.add(1, 1, f"{name} differs between two traced runs: {sorted(values)}")
    for name in MUST_BE_NONZERO[workload]:
        if runs[0][name] == 0:
            tally.add(1, 1, f"{name} is 0 on {workload}, which uses that layer")
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_frac":
            metrics[name] = statistics.median(walls) / base_wall - 1.0
        elif name == "setup.gkm.realize_in_bt_s":
            metrics[name] = (
                statistics.median(w["gkm.realize_in_bt"]["self_s"] for w in warm) if warm else 0.0
            )
        elif name in DETERMINISTIC:
            metrics[name] = runs[0][name]
        else:
            metrics[name] = statistics.median(r[name] for r in runs)
    return metrics


# -- the run record --------------------------------------------------------------------------


def _loadavg() -> Optional[List[float]]:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def _commit() -> Optional[str]:
    if not os.path.exists(".git"):  # never report the commit of an enclosing repository
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """SHA-256 over src/flagoct, which identifies the code when git cannot."""
    digest = hashlib.sha256()
    root = os.path.join("src", "flagoct")
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(root, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def record(args: argparse.Namespace) -> Dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": _loadavg(),
    }


# -- entry point -------------------------------------------------------------------------------


def measure(
    workload: str, seed: int, seconds: float, trace: bool, workdir: str, raw: Dict
) -> Tuple[Dict, Tally]:
    tally = Tally()
    if trace:
        values = traced_metrics(workload, seed, workdir, tally)
        units = {name: _layer_unit(name) for name in values}
    elif workload in COLD:
        values = cold_untraced(workload, seed, seconds, workdir, tally, raw)
        units = END_TO_END
    else:
        values = stream_untraced(seed, seconds, workdir, tally, raw)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in values}
    return metrics, tally


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    return "count"


def _check_tree() -> None:
    if not os.path.isfile(os.path.join("src", "flagoct", "cli.py")):
        raise BenchError("run from the root of a flagoct tree: src/flagoct/cli.py not found")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check the benchmark's own oracles and tracer")
    args = parser.parse_args(argv)
    try:
        _check_tree()
        if args.self_test:
            import selftest

            return selftest.main()
        if args.workload is None:
            parser.error("--workload is required")
        run_record = record(args)
        workdir = os.path.join(".bench_work", f"{args.workload}-{os.getpid()}")
        os.makedirs(workdir)
        raw: Dict[str, float] = {}
        metrics, tally = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir, raw)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # each run removes what it wrote; the parent only if no other run uses it
        if os.path.isdir(".bench_work"):
            for entry in os.listdir(".bench_work"):
                if entry.endswith(f"-{os.getpid()}"):
                    shutil.rmtree(os.path.join(".bench_work", entry), ignore_errors=True)
            with contextlib.suppress(OSError):
                os.rmdir(".bench_work")
    run_record["loadavg_end"] = _loadavg()
    run_record["samples"] = tally.samples
    if raw:
        run_record["unscaled"] = raw
    for problem in tally.problems:
        print(f"failure: {problem}", file=sys.stderr)
    print("record " + json.dumps(run_record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
