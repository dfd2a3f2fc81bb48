"""Verification suites: every checkable statement of the package, declared.

The checks of suite ``<name>`` are declared in module ``<name>_checks``,
whose ``declarations(seed, degree_cutoff, corrupt)`` sets up its seeded
fixtures and returns a list of declarations ``(id, description, anchor,
thunk)``.  ``suite_<name>`` hands them to :func:`~flagoct.report.run_checks`,
which returns one :class:`~flagoct.report.Check` per declaration.  The thunk
takes no argument and returns ``ok`` or ``(ok, details)``.

* The thunks run in declaration order, inside the suite function's call.  A
  thunk that draws from the suite's seeded generator draws all of its
  samples before it judges any, so the draws of the checks after it do not
  depend on its verdict.  A new check that draws goes after the checks
  whose draws it must not move.
* A thunk that raises fails its own check, with details
  ``raised <ExceptionType>: <message>``; the suite's other checks still run.
* Every suite carries a negative control: a deliberately falsified fixture
  that the relevant checker must reject.  With ``corrupt=True`` the
  falsified fixture replaces the genuine one, so that the suite fails
  honestly (it cannot pass vacuously).

The package registers each ``<name>_checks`` module lazily, so a command
compiles the declarations of the suites it runs and no others.
:func:`run_suite` builds the report of one suite, or of ``all`` with each
id prefixed by ``<suite>.``, and records its runtime.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

from . import cohomology_checks, gkm_checks, jordan_checks, ktheory_checks, octonion_checks
from . import roots_checks
from .report import Check, VerificationReport, run_checks

# one plain function per suite, each a span of its own for profilers and the
# benchmark's tracer


def suite_octonion(seed: int = 0, degree_cutoff: int = 8, corrupt: bool = False) -> List[Check]:
    return run_checks(octonion_checks.declarations(seed, degree_cutoff, corrupt))


def suite_jordan(seed: int = 0, degree_cutoff: int = 8, corrupt: bool = False) -> List[Check]:
    return run_checks(jordan_checks.declarations(seed, degree_cutoff, corrupt))


def suite_roots(seed: int = 0, degree_cutoff: int = 8, corrupt: bool = False) -> List[Check]:
    return run_checks(roots_checks.declarations(seed, degree_cutoff, corrupt))


def suite_cohomology(seed: int = 0, degree_cutoff: int = 8, corrupt: bool = False) -> List[Check]:
    return run_checks(cohomology_checks.declarations(seed, degree_cutoff, corrupt))


def suite_gkm(seed: int = 0, degree_cutoff: int = 8, corrupt: bool = False) -> List[Check]:
    return run_checks(gkm_checks.declarations(seed, degree_cutoff, corrupt))


def suite_ktheory(seed: int = 0, degree_cutoff: int = 8, corrupt: bool = False) -> List[Check]:
    return run_checks(ktheory_checks.declarations(seed, degree_cutoff, corrupt))


SUITES: Dict[str, Callable[..., List[Check]]] = {
    "octonion": suite_octonion,
    "jordan": suite_jordan,
    "roots": suite_roots,
    "cohomology": suite_cohomology,
    "gkm": suite_gkm,
    "ktheory": suite_ktheory,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(
    name: str,
    seed: int = 0,
    degree_cutoff: int = 8,
    corrupt: bool = False,
) -> VerificationReport:
    """Run one named suite, or 'all' with each check id prefixed by its
    suite; checks are sorted by id in the output."""
    start = time.monotonic()
    rep = VerificationReport(name, seed, degree_cutoff)
    for sub in SUITE_NAMES if name == "all" else (name,):
        prefix = f"{sub}." if name == "all" else ""
        for check in SUITES[sub](seed, degree_cutoff, corrupt):
            rep.add(check._replace(id=prefix + check.id))
    rep.runtime_ms = int((time.monotonic() - start) * 1000)
    return rep
