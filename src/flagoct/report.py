"""Structured results for the verification suites.

A report is a list of checks, each with a stable id, a human-readable
description, a pass/fail/skipped status, a details string, and an anchor
naming the mathematical fact being verified.  Reports render identically
(same check set, same ids) as text or JSON.

A suite declares its checks as ``(id, description, anchor, thunk)``; the
thunk takes no argument and returns ``ok`` or ``(ok, details)``, and
:func:`run_checks` turns the declarations into checks.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

STATUSES = ("pass", "fail", "skipped")


class _CheckFields(NamedTuple):
    id: str
    description: str
    status: str
    details: str = ""
    anchor: str = ""


class Check(_CheckFields):
    __slots__ = ()

    def __new__(
        cls, id: str, description: str, status: str, details: str = "", anchor: str = ""
    ) -> "Check":
        if status not in STATUSES:
            raise ValueError(f"status must be one of {STATUSES}")
        return super().__new__(cls, id, description, status, details, anchor)

    # validated like the constructor; ``_replace`` builds through ``_make``
    _make = classmethod(lambda cls, iterable: cls(*iterable))


Outcome = Union[bool, Tuple[bool, str]]
Declaration = Tuple[str, str, str, Callable[[], Outcome]]


def run_checks(declarations: List[Declaration]) -> List[Check]:
    """Call each declaration's thunk in order; one that raises fails alone."""
    checks = []
    for id, description, anchor, thunk in declarations:
        try:
            outcome = thunk()
        except Exception as exc:
            outcome = (False, f"raised {type(exc).__name__}: {exc}")
        ok, details = outcome if isinstance(outcome, tuple) else (outcome, "")
        checks.append(Check(id, description, "pass" if ok else "fail", details, anchor))
    return checks


class VerificationReport:
    def __init__(
        self,
        suite: str,
        seed: int,
        degree_cutoff: int,
        checks: Optional[List[Check]] = None,
        runtime_ms: Optional[int] = None,
    ) -> None:
        self.suite = suite
        self.seed = seed
        self.degree_cutoff = degree_cutoff
        self.checks: List[Check] = [] if checks is None else checks
        self.runtime_ms = runtime_ms

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def add(self, check: Check) -> None:
        if any(c.id == check.id for c in self.checks):
            raise ValueError(f"duplicate check id {check.id!r}")
        self.checks.append(check)

    def sorted_checks(self) -> List[Check]:
        return sorted(self.checks, key=lambda c: c.id)

    @property
    def summary(self) -> Dict[str, int]:
        out = {s: 0 for s in STATUSES}
        for c in self.checks:
            out[c.status] += 1
        return out

    @property
    def passed(self) -> bool:
        return self.summary["fail"] == 0

    def to_dict(self) -> Dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "degree_cutoff": self.degree_cutoff,
            "runtime_ms": self.runtime_ms,
            "summary": self.summary,
            "checks": [c._asdict() for c in self.sorted_checks()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        lines = [
            f"suite: {self.suite}",
            f"seed: {self.seed}",
            f"degree cutoff: {self.degree_cutoff}",
            "",
        ]
        width = max((len(c.id) for c in self.checks), default=0)
        for c in self.sorted_checks():
            mark = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[c.status]
            line = f"[{mark}] {c.id.ljust(width)}  {c.description}"
            if c.details:
                line += f"  -- {c.details}"
            if c.anchor:
                line += f"  ({c.anchor})"
            lines.append(line)
        s = self.summary
        lines.append("")
        lines.append(
            f"total: {len(self.checks)}  pass: {s['pass']}  "
            f"fail: {s['fail']}  skipped: {s['skipped']}"
        )
        if self.runtime_ms is not None:
            lines.append(f"runtime: {self.runtime_ms} ms")
        return "\n".join(lines)
