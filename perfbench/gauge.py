"""A gauge of the machine's speed, taken inside the process being timed.

On a shared host the same pure-Python work can run 1.6 times slower for
seconds or minutes at a time, whenever other tenants load the machine, and
no length of run averages that out.  So every end-to-end time this
benchmark reports is scaled to a reference speed: a time t measured while
the gauge below takes g seconds is reported as ``t * REFERENCE_S / g``.

The gauge is a fixed sum of ``fractions.Fraction`` values from the standard
library.  It shares no code with flagoct, so a change to flagoct cannot move
it, and like flagoct it spends its time in the interpreter and in big-integer
gcds, so the host slows both alike.  Where the machine's speed changes in a
run, the reported time reads ``REFERENCE_S * integral(dt / g(t))``: the
gauge is sampled next to the work, and the samples are combined with a
harmonic mean.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
from fractions import Fraction
from typing import List, Sequence

# the gauge's time at the reference speed, a fixed choice: the gauge took
# 0.34-0.55 ms on the 2-CPU virtual machine (Python 3.11) this benchmark was
# written on, so reported times are close to the raw times of its slower
# stretches
REFERENCE_S = 0.0005

# period of the background sampler, which costs the timed work one gauge
# (about 0.5 ms) per period
SAMPLE_PERIOD_S = 0.025


def gauge() -> float:
    """Seconds taken by one fixed piece of work.

    The cyclic collector is off meanwhile, so that a collection of the
    timed program's objects never lands in a sample.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 150):
            total += Fraction(1, i)
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def scale(seconds: float, samples: Sequence[float]) -> float:
    """``seconds`` at the reference speed, given gauge samples taken during it."""
    return seconds * REFERENCE_S / statistics.harmonic_mean(samples)


class Sampler:
    """Takes a gauge sample now and then every SAMPLE_PERIOD_S, in a daemon
    thread, until :meth:`stop`.

    A sample runs between bytecodes of the timed thread (it holds the GIL
    for about 0.5 ms, a tenth of the interpreter's switch interval), so it
    sees the machine at the same moments as the work it scales.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.samples.append(gauge())
            if self._stop.wait(SAMPLE_PERIOD_S):
                return

    def start(self) -> "Sampler":
        self._thread.start()
        return self

    def stop(self) -> List[float]:
        self._stop.set()
        self._thread.join()
        return list(self.samples)
