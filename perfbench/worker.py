"""Child process of the benchmark; flagoct runs here, never in the parent.

    worker.py gauged GAUGE_OUT [ARGV...]
        Keep to one CPU, start the gauge sampler (gauge.py), import
        flagoct.cli, run ``main(ARGV)`` if ARGV is given, with the report
        going to stdout, write the gauge samples to GAUGE_OUT as JSON, and
        exit with main's code (0 without ARGV).  This is every timed cold
        sample: set-up without ARGV, a verify run with it.

    worker.py verify TRACE_OUT ARGV...
        Import flagoct.cli, install the tracer, run ``main(ARGV)`` with the
        report going to stdout, write the trace snapshot to TRACE_OUT, and
        exit with main's code.

    worker.py stream REQUESTS_JSON [--trace | --gauge]
        Import flagoct.cli, run the warm-up requests, print ``ready``, then
        run the timed requests one after another (a closed loop with one
        client) and print one JSON line with per-request latencies and
        verdict failures.  With --trace the tracer covers the warm-up and the
        timed pass separately.  With --gauge the process keeps to one CPU,
        the sampler runs until ``ready``, a gauge sample is taken before the
        first timed request and after each one, and every latency is also
        given at the reference speed.

    worker.py profile REQUESTS_JSON
        Run the timed requests once under cProfile and print, per tracer
        target, cProfile's primitive and total call counts.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback

from gauge import Sampler, gauge, scale


def _one_cpu() -> None:
    """Keep this process on one CPU.

    The CPUs of a shared virtual machine can run at different speeds at the
    same moment, so the sampler thread must run where the work runs.
    """
    with contextlib.suppress(OSError):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _call(cli, argv):
    """Run one request; returns (exit code or None on a traceback, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception:  # a traceback is a failed request, not a crash
            traceback.print_exc(file=err)
            code = None
    return code, out.getvalue(), err.getvalue()


def _run_requests(cli, requests, gauged=False):
    """Run ``requests`` in order; returns (wall s, latencies ms, latencies ms
    at the reference speed, failed).

    With ``gauged``, each latency is scaled by the gauge samples taken just
    before and just after it; otherwise the scaled list is empty.
    """
    import stream

    latencies, scaled, failed = [], [], 0
    before = gauge() if gauged else None
    start = time.perf_counter()
    for request in requests:
        t0 = time.perf_counter()
        code, out, err = _call(cli, request.argv)
        latencies.append((time.perf_counter() - t0) * 1000.0)
        if gauged:
            after = gauge()
            scaled.append(scale(latencies[-1], (before, after)))
            before = after
        if not stream.judge(request, code, out, err):
            failed += 1
    return time.perf_counter() - start, latencies, scaled, failed


def _load(path):
    import stream

    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return (
        [stream.Request.from_dict(r) for r in data["warmup"]],
        [stream.Request.from_dict(r) for r in data["timed"]],
    )


def _stream(path: str, trace: bool, gauged: bool) -> int:
    sampler = None
    if gauged:
        _one_cpu()
        sampler = Sampler().start()
    import flagoct.cli as cli

    warmup, timed = _load(path)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    _, _, _, warm_failed = _run_requests(cli, warmup)
    setup_gauge = sampler.stop() if sampler else []
    print("ready", flush=True)
    warm_trace = None
    if tracer is not None:
        warm_trace = tracer.snapshot()
        tracer.reset()
    wall, latencies, scaled, failed = _run_requests(cli, timed, gauged)
    result = {
        "wall_s": wall,
        "latencies_ms": latencies,
        "scaled_ms": scaled,
        "setup_gauge": setup_gauge,
        "attempted": len(warmup) + len(timed),
        "failed": warm_failed + failed,
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
        result["warmup_trace"] = warm_trace
        tracer.uninstall()
    print(json.dumps(result), flush=True)
    return 0


def _gauged(gauge_out: str, argv) -> int:
    _one_cpu()
    sampler = Sampler().start()
    try:
        import flagoct.cli as cli

        return cli.main(list(argv)) if argv else 0
    finally:
        samples = sampler.stop()
        sys.stdout.flush()
        with open(gauge_out, "w", encoding="utf-8") as fh:
            json.dump(samples, fh)


def _verify(trace_out: str, argv) -> int:
    import flagoct.cli as cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(list(argv))
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.snapshot(), fh)
    return code


def _profile(path: str) -> int:
    import cProfile
    import pstats

    import flagoct.cli as cli
    from tracer import target_code_keys

    warmup, timed = _load(path)
    _run_requests(cli, warmup)
    profiler = cProfile.Profile()
    profiler.enable()
    _, _, _, failed = _run_requests(cli, timed)
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    counts = {}
    for name, key in target_code_keys().items():
        primitive, total = stats.get(key, (0, 0))[:2]
        counts[name] = {"primitive": primitive, "total": total}
    print(json.dumps({"counts": counts, "failed": failed}), flush=True)
    return 0


def main(argv) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "gauged":
        return _gauged(rest[0], rest[1:])
    if mode == "verify":
        return _verify(rest[0], rest[1:])
    if mode == "stream":
        return _stream(rest[0], "--trace" in rest[1:], "--gauge" in rest[1:])
    if mode == "profile":
        return _profile(rest[0])
    raise SystemExit(f"unknown worker mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
