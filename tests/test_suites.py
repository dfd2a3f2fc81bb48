"""Verification suites: orchestration, determinism, negative controls.

``fixtures/verify_all_seed0.json`` pins the report of
``flagoct verify all --seed 0 --format json`` without its ``runtime_ms``;
``fixtures/verify_all_seed0_corrupt_statuses.json`` pins every check's status
under ``--corrupt``.  Both were written by the code before the sparse operator
products, so a kernel change that moves any id, status or detail shows here.
``fixtures/verify_gkm_cutoff16_seed0.json`` pins the report of
``flagoct verify gkm --degree-cutoff 16 --seed 0 --format json`` in the same
way; it was written before the packed sparse core.
``fixtures/verify_gkm_cutoff24_seed0.json`` pins
``flagoct verify gkm --degree-cutoff 24 --seed 0 --format json`` the same way;
it was written by the code that raised the cutoff cap to 24, before the
restated Weyl, character and Jordan tables were derived from one source.
"""

import functools
import json
from pathlib import Path

import pytest

from flagoct import cli, gkm
from flagoct.report import Check, VerificationReport, run_checks
from flagoct.suites import SUITE_NAMES, run_suite


class TestReportObject:
    def test_check_status_validated(self):
        with pytest.raises(ValueError):
            Check("a", "desc", "maybe")

    def test_duplicate_ids_rejected(self):
        rep = VerificationReport("demo", 0, 8)
        rep.add(Check("a", "first", "pass"))
        with pytest.raises(ValueError):
            rep.add(Check("a", "again", "pass"))

    def test_summary_counts_and_passed(self):
        rep = VerificationReport("demo", 0, 8)
        rep.add(Check("a", "good", "pass"))
        rep.add(Check("b", "bad", "fail"))
        rep.add(Check("c", "skipped thing", "skipped"))
        assert rep.summary == {"pass": 1, "fail": 1, "skipped": 1}
        assert not rep.passed
        assert [c.id for c in rep.sorted_checks()] == ["a", "b", "c"]

    def test_text_rendering_marks_statuses(self):
        rep = VerificationReport("demo", 3, 8)
        rep.add(Check("z-last", "good", "pass"))
        rep.add(Check("a-first", "bad", "fail", details="saw 5", anchor="ctx"))
        text = rep.to_text()
        assert "suite: demo" in text
        assert "seed: 3" in text
        assert text.index("a-first") < text.index("z-last")
        assert "[FAIL] a-first" in text
        assert "saw 5" in text and "(ctx)" in text
        assert "total: 2  pass: 1  fail: 1  skipped: 0" in text


FIXTURES = Path(__file__).resolve().parent / "fixtures"


def pinned(name):
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def clean_report():
    """The clean seed-0, cutoff-8 report of a suite, computed once per module."""
    return functools.cache(lambda name: run_suite(name, seed=0))


class TestRunSuite:
    def test_every_suite_passes_clean(self, clean_report):
        for name in SUITE_NAMES:
            rep = clean_report(name)
            assert rep.passed, f"{name}: {[c.id for c in rep.checks if c.status == 'fail']}"
            assert rep.summary["fail"] == 0
            assert len(rep.checks) >= 5

    def test_fixed_seed_is_deterministic(self):
        first = run_suite("jordan", seed=4).to_dict()
        second = run_suite("jordan", seed=4).to_dict()
        first.pop("runtime_ms")
        second.pop("runtime_ms")
        assert first == second

    def test_negative_controls_present_and_passing(self, clean_report):
        for name in ("octonion", "gkm", "ktheory"):
            rep = clean_report(name)
            control_ids = [c.id for c in rep.checks if "negative-control" in c.id]
            assert control_ids, f"suite {name} has no negative-control checks"
            for c in rep.checks:
                if "negative-control" in c.id:
                    assert c.status == "pass"

    def test_corrupt_mode_is_detected(self, clean_report):
        # spot-check two suites here; the acceptance tests sweep all six
        statuses = pinned("verify_all_seed0_corrupt_statuses.json")
        for name in ("roots", "cohomology"):
            clean = clean_report(name)
            bad = run_suite(name, seed=0, corrupt=True)
            failing = [c.id for c in bad.checks if c.status == "fail"]
            assert failing, f"corrupt {name} run produced no failures"
            assert set(failing) <= {c.id for c in clean.checks}
            assert {f"{name}.{c.id}": c.status for c in bad.checks} == {
                k: v for k, v in statuses.items() if k.startswith(f"{name}.")
            }

    def test_all_merges_with_prefixes(self, clean_report):
        rep = clean_report("all")
        prefixes = {c.id.split(".", 1)[0] for c in rep.checks}
        assert prefixes == set(SUITE_NAMES)
        total = 0
        for name in SUITE_NAMES:
            total += len(clean_report(name).checks)
        assert len(rep.checks) == total
        assert rep.passed

    def test_all_report_matches_pinned_fixture(self, clean_report):
        report = json.loads(clean_report("all").to_json())
        report.pop("runtime_ms")
        assert report == pinned("verify_all_seed0.json")

    def test_gkm_cutoff_16_report_matches_pinned_fixture(self):
        # written before the packed sparse core, like the report above
        report = json.loads(run_suite("gkm", seed=0, degree_cutoff=16).to_json())
        report.pop("runtime_ms")
        assert report == pinned("verify_gkm_cutoff16_seed0.json")

    def test_gkm_cutoff_24_report_matches_pinned_fixture(self):
        report = json.loads(run_suite("gkm", seed=0, degree_cutoff=24).to_json())
        report.pop("runtime_ms")
        assert report == pinned("verify_gkm_cutoff24_seed0.json")

    def test_unknown_suite_raises(self):
        with pytest.raises(KeyError):
            run_suite("nope", seed=0)

    def test_runtime_recorded(self, clean_report):
        rep = clean_report("octonion")
        assert rep.runtime_ms is not None and rep.runtime_ms >= 0


class TestFailureCapture:
    """A check whose computation raises fails on its own; the rest still run."""

    def test_runner_turns_an_exception_into_that_checks_fail(self):
        def boom():
            raise ZeroDivisionError("no inverse")

        results = run_checks([
            ("first", "plain verdict", "", lambda: True),
            ("second", "raises", "anchor", boom),
            ("third", "verdict with details", "", lambda: (False, "saw 2")),
        ])
        assert results == [
            Check("first", "plain verdict", "pass", "", ""),
            Check("second", "raises", "fail", "raised ZeroDivisionError: no inverse", "anchor"),
            Check("third", "verdict with details", "fail", "saw 2", ""),
        ]
        assert all(type(c) is Check for c in results)

    @pytest.fixture
    def raising_free_rank(self, monkeypatch):
        def free_rank_check(degree_cutoff):
            raise RuntimeError(f"rank table broken at {degree_cutoff}")

        monkeypatch.setattr(gkm, "free_rank_check", free_rank_check)

    def test_verify_gkm_reports_the_raise_as_a_fail(self, raising_free_rank, clean_report, capsys):
        assert cli.main(["verify", "gkm", "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        statuses = {c["id"]: c for c in json.loads(captured.out)["checks"]}
        assert set(statuses) == {c.id for c in clean_report("gkm").checks}
        failed = statuses.pop("free-rank")
        assert failed["status"] == "fail"
        assert failed["details"] == "raised RuntimeError: rank table broken at 8"
        assert {c["status"] for c in statuses.values()} == {"pass"}

    def test_verify_gkm_text_names_the_exception(self, raising_free_rank, clean_report, capsys):
        assert cli.main(["verify", "gkm"]) == 1
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        marks = {line.split()[1]: line for line in out.splitlines() if line.startswith("[")}
        assert set(marks) == {c.id for c in clean_report("gkm").checks}
        assert marks.pop("free-rank").startswith("[FAIL] free-rank")
        assert all(line.startswith("[PASS]") for line in marks.values())
        assert "raised RuntimeError: rank table broken at 8" in out

    def test_verify_all_keeps_every_other_check(self, raising_free_rank, capsys):
        assert cli.main(["verify", "all", "--format", "json"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert {c["id"] for c in checks} == set(pinned("verify_all_seed0_corrupt_statuses.json"))
        failing = [c["id"] for c in checks if c["status"] != "pass"]
        assert failing == ["gkm.free-rank"]
