"""Self-test of the benchmark's oracles and tracer: ``run.py --self-test``.

Each check prints ``ok`` or ``FAIL`` with its evidence; the exit code is the
number of failed checks (0 when all hold).  It takes about three minutes.

1. BENCHMARK.json names exactly the workloads and metrics run.py reports.
2. The verify oracle fires on ``--corrupt`` output of both cold workloads.
3. The stream oracle fires when one expected verdict or one expected
   dimension is flipped, and passes the unflipped stream.
4. Every tracer count equals cProfile's call count on one short run
   (all six suites in one process plus one block of stream requests).
5. Traced runs of every workload are correct, their counts repeat, and the
   layer split holds: octonion and Weyl products run on verify-all only,
   and matrix_rank takes longer on rank-table-16 than on verify-all.
6. In a directory holding only BENCHMARK.json and perfbench, run.py exits
   non-zero without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import run
import stream
from tracer import TARGETS


class Checks:
    def __init__(self) -> None:
        self.failed = 0

    def expect(self, ok: bool, what: str, evidence: object = "") -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}" + (f": {evidence}" if evidence != "" else ""), flush=True)
        self.failed += not ok


def check_manifest(checks: Checks) -> None:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    checks.expect(
        [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS),
        "BENCHMARK.json workloads match run.py",
    )
    checks.expect(
        {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.END_TO_END,
        "BENCHMARK.json end_to_end metrics and units match run.py",
    )
    checks.expect(
        [m["name"] for m in manifest["per_layer"]] == list(run.PER_LAYER),
        "BENCHMARK.json per_layer metrics match run.py",
    )


def check_verify_oracle(checks: Checks, workdir: str) -> None:
    golden = run._golden()
    for workload in run.COLD:
        argv = [sys.executable, "-m", "flagoct.cli"] + run._verify_argv(workload, 0)
        child = run.run_child(argv + ["--corrupt"], workdir)
        attempted, failed = run.judge_report(workload, child, golden)
        checks.expect(
            failed > 0,
            f"verify oracle rejects --corrupt output of {workload}",
            f"exit {child.code}, failed_frac {failed}/{attempted}",
        )


def _write_requests(path: str, warmup, timed) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"warmup": [r.to_dict() for r in warmup], "timed": [r.to_dict() for r in timed]}, fh)


def check_stream_oracle(checks: Checks, workdir: str) -> None:
    warmup = stream.generate(7, 1, workdir, "warm")
    timed = stream.generate(8, 1, workdir, "req")
    path = os.path.join(workdir, "oracle.json")
    first_check = next(i for i, r in enumerate(timed) if r.kind != "expand")
    first_expand = next(i for i, r in enumerate(timed) if r.kind == "expand")
    variants = {
        "unchanged": (timed, 0),
        "one verdict flipped": (
            [dataclasses.replace(r, member=not r.member) if i == first_check else r for i, r in enumerate(timed)],
            1,
        ),
        "one dimension off by one": (
            [
                dataclasses.replace(r, expected_dimension=r.expected_dimension + 1) if i == first_expand else r
                for i, r in enumerate(timed)
            ],
            1,
        ),
    }
    for name, (requests, expected_failures) in variants.items():
        _write_requests(path, warmup, requests)
        tally = run.Tally()
        run.run_stream_worker(path, workdir, None, tally, name)
        checks.expect(
            tally.failed == expected_failures,
            f"stream oracle, {name}: {expected_failures} failure(s) expected",
            f"failed_frac {tally.failed}/{tally.attempted}",
        )


def check_tracer_against_cprofile(checks: Checks, workdir: str) -> None:
    # no warm-up, so that one-time work such as realize_in_bt is counted too
    warmup = []
    suites = [
        stream.Request("verify", True, ("verify", name, "--seed", "0"))
        for name in ("octonion", "jordan", "roots", "cohomology", "gkm", "ktheory")
    ]
    timed = suites + stream.generate(8, 1, workdir, "req")
    path = os.path.join(workdir, "crosscheck.json")
    _write_requests(path, warmup, timed)
    tally = run.Tally()
    traced, _ = run.run_stream_worker(path, workdir, "--trace", tally, "traced cross-check run")
    child = run.run_child([sys.executable, os.path.join(run.HERE, "worker.py"), "profile", path], workdir)
    profiled = json.loads(child.stdout.strip().splitlines()[-1])
    checks.expect(tally.failed == 0 and profiled["failed"] == 0, "cross-check runs decide correctly")
    for name, *_ in TARGETS:
        calls = traced["trace"][name]["calls"]
        prof = profiled["counts"][name]
        checks.expect(
            calls == prof["total"] == prof["primitive"] and calls > 0,
            f"tracer {name} calls equal cProfile's",
            f"tracer {calls}, cProfile primitive {prof['primitive']}, total {prof['total']}",
        )


def check_traced_runs(checks: Checks, workdir: str) -> None:
    layers = {}
    for workload in run.WORKLOADS:
        tally = run.Tally()
        layers[workload] = run.traced_metrics(workload, 0, workdir, tally)
        checks.expect(
            tally.failed == 0,
            f"traced {workload}: correct, counts repeat, used layers nonzero",
            "; ".join(tally.problems),
        )
    for name in ("octonion.mul_calls", "weyl.element_mul_calls"):
        values = {w: layers[w][name] for w in layers}
        checks.expect(
            values["verify-all"] > 0 and values["rank-table-16"] == 0 and values["membership-stream"] == 0,
            f"{name} > 0 on verify-all only",
            values,
        )
    ranks = {w: layers[w]["cohomology.matrix_rank_s"] for w in ("verify-all", "rank-table-16")}
    checks.expect(
        ranks["rank-table-16"] > ranks["verify-all"],
        "cohomology.matrix_rank_s larger on rank-table-16 than on verify-all",
        ranks,
    )
    print("traced metrics: " + json.dumps(layers, sort_keys=True), flush=True)


def check_bare_directory(checks: Checks, workdir: str) -> None:
    bare = os.path.abspath(os.path.join(workdir, "bare"))
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(run.HERE, os.path.join(bare, os.path.basename(run.HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(run.HERE), "run.py"),
         "--workload", "verify-all", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    checks.expect(
        out.returncode != 0 and not out.stdout.strip(),
        "without src/flagoct the benchmark exits non-zero and prints no result",
        f"exit {out.returncode}, stderr {out.stderr.strip()!r}",
    )


def main() -> int:
    checks = Checks()
    # run.main removes this directory when the self-test returns
    workdir = os.path.join(".bench_work", f"self-test-{os.getpid()}")
    os.makedirs(workdir)
    check_manifest(checks)
    check_verify_oracle(checks, workdir)
    check_stream_oracle(checks, workdir)
    check_tracer_against_cprofile(checks, workdir)
    check_traced_runs(checks, workdir)
    check_bare_directory(checks, workdir)
    print(f"self-test: {checks.failed} failed check(s)")
    return min(checks.failed, 100)
