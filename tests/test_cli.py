"""Command-line interface: subcommands, exit codes, file validation."""

import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from flagoct import cli
from flagoct.cli import main
from flagoct.gkm import random_membership_tuple
from flagoct.ktheory import x_character
from flagoct.weyl import SIGMA3_NAMES, sigma3_by_name


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_tuple(tmp_path, entries, ring=None, filename="tuple.json"):
    payload = {"entries": entries}
    if ring is not None:
        payload["ring"] = ring
    path = tmp_path / filename
    path.write_text(json.dumps(payload))
    return str(path)


def hb_member_entries(seed=3):
    t = random_membership_tuple(random.Random(seed), degree=2)
    return {name: str(p) for name, p in t.entries.items()}


class TestVerify:
    def test_text_report_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "octonion")
        assert code == 0
        assert "suite: octonion" in out
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_json_report_shape(self, capsys):
        code, out, _ = run(capsys, "verify", "cohomology", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["suite"] == "cohomology"
        assert data["seed"] == 0
        assert data["summary"]["fail"] == 0
        assert data["summary"]["pass"] == len(data["checks"])
        ids = [c["id"] for c in data["checks"]]
        assert ids == sorted(ids)
        for c in data["checks"]:
            assert set(c) == {"id", "description", "status", "details", "anchor"}

    def test_text_and_json_agree_on_check_ids(self, capsys):
        code, text_out, _ = run(capsys, "verify", "roots")
        assert code == 0
        code, json_out, _ = run(capsys, "verify", "roots", "--format", "json")
        assert code == 0
        json_ids = {c["id"] for c in json.loads(json_out)["checks"]}
        text_ids = set(re.findall(r"\[(?:PASS|FAIL|SKIP)\] (\S+)", text_out))
        assert text_ids == json_ids

    def test_corrupt_run_fails_with_exit_1(self, capsys):
        code, out, _ = run(capsys, "verify", "roots", "--corrupt")
        assert code == 1
        assert "[FAIL]" in out

    def test_unknown_suite_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "bogus")
        assert code == 2

    def test_degree_cutoff_bounds(self, capsys):
        code, _, err = run(capsys, "verify", "gkm", "--degree-cutoff", "17")
        assert code == 2
        assert "degree-cutoff" in err

    @pytest.mark.parametrize("suite, cutoff", [("gkm", "7"), ("all", "3"), ("gkm", "15")])
    def test_odd_degree_cutoff_exits_2_before_any_suite(self, capsys, monkeypatch, suite, cutoff):
        def no_suite(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr("flagoct.cli.run_suite", no_suite)
        code, out, err = run(capsys, "verify", suite, "--degree-cutoff", cutoff)
        assert code == 2
        assert out == ""
        assert err == "error: --degree-cutoff must be even\n"

    def test_odd_degree_cutoff_ignored_by_suites_that_do_not_read_it(self, capsys):
        code, out, _ = run(capsys, "verify", "octonion", "--degree-cutoff", "7")
        assert code == 0
        assert "degree cutoff: 7" in out

    def test_free_rank_script_rejects_odd_cutoff(self):
        root = Path(__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "free_rank_table.py"), "--degree-cutoff", "7"],
            capture_output=True,
            text=True,
            timeout=60,
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "error: --degree-cutoff must be even" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("FLAGOCT_SEED", "11")
        code, out, _ = run(capsys, "verify", "octonion", "--format", "json")
        assert code == 0
        assert json.loads(out)["seed"] == 11

    def test_seed_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FLAGOCT_SEED", "11")
        code, out, _ = run(
            capsys, "verify", "octonion", "--seed", "7", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["seed"] == 7

    def test_bad_seed_env_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("FLAGOCT_SEED", "not-a-number")
        code, _, err = run(capsys, "verify", "octonion")
        assert code == 2
        assert "FLAGOCT_SEED" in err


class TestGkmCheck:
    def test_hb_member_accepted(self, capsys, tmp_path):
        path = write_tuple(tmp_path, hb_member_entries(), ring="Hb")
        code, out, _ = run(capsys, "gkm-check", "--ring", "Hb", "--file", path)
        assert code == 0
        assert out.startswith("ok:")

    def test_hb_perturbed_rejected_with_edge(self, capsys, tmp_path):
        entries = hb_member_entries()
        entries["s1"] = entries["s1"] + " + 1"
        path = write_tuple(tmp_path, entries)
        code, out, _ = run(capsys, "gkm-check", "--ring", "Hb", "--file", path)
        assert code == 1
        assert out.startswith("fail at edge")
        assert "s1" in out

    def test_ht_constant_tuple_accepted(self, capsys, tmp_path):
        path = write_tuple(tmp_path, {name: "5" for name in SIGMA3_NAMES})
        code, out, _ = run(capsys, "gkm-check", "--ring", "HT", "--file", path)
        assert code == 0

    def test_ht_mismatched_constants_rejected(self, capsys, tmp_path):
        entries = {name: "5" for name in SIGMA3_NAMES}
        entries["s1s2s1"] = "7"
        path = write_tuple(tmp_path, entries)
        code, out, _ = run(capsys, "gkm-check", "--ring", "HT", "--file", path)
        assert code == 1

    def test_ht_requires_invariant_entries(self, capsys, tmp_path):
        entries = {name: "rho1" for name in SIGMA3_NAMES}
        path = write_tuple(tmp_path, entries)
        code, out, err = run(capsys, "gkm-check", "--ring", "HT", "--file", path)
        assert code == 1
        assert "invariant" in out

    def test_rt_tautological_tuple_accepted(self, capsys, tmp_path):
        entries = {
            name: str(x_character(sigma3_by_name(name)(1)))
            for name in SIGMA3_NAMES
        }
        path = write_tuple(tmp_path, entries, ring="RT")
        code, out, _ = run(capsys, "gkm-check", "--ring", "RT", "--file", path)
        assert code == 0

    def test_rt_lone_vertex_change_rejected(self, capsys, tmp_path):
        entries = {
            name: str(x_character(sigma3_by_name(name)(1)))
            for name in SIGMA3_NAMES
        }
        entries["1"] = str(x_character(4))
        path = write_tuple(tmp_path, entries)
        code, out, _ = run(capsys, "gkm-check", "--ring", "RT", "--file", path)
        assert code == 1

    def test_rx_tautological_tuple_accepted(self, capsys, tmp_path):
        entries = {
            name: f"X{sigma3_by_name(name)(1)}" for name in SIGMA3_NAMES
        }
        path = write_tuple(tmp_path, entries, ring="RX")
        code, out, _ = run(capsys, "gkm-check", "--ring", "RX", "--file", path)
        assert code == 0

    def test_ring_mismatch_between_file_and_flag(self, capsys, tmp_path):
        path = write_tuple(tmp_path, hb_member_entries(), ring="Hb")
        code, _, err = run(capsys, "gkm-check", "--ring", "RT", "--file", path)
        assert code == 2
        assert "ring" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "gkm-check", "--ring", "Hb", "--file", str(tmp_path / "no.json")
        )
        assert code == 2
        assert "cannot read" in err

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not valid json")
        code, _, err = run(capsys, "gkm-check", "--ring", "Hb", "--file", str(path))
        assert code == 2
        assert "not valid JSON" in err

    def test_non_object_payload(self, capsys, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2, 3]))
        code, _, err = run(capsys, "gkm-check", "--ring", "Hb", "--file", str(path))
        assert code == 2

    def test_missing_vertex(self, capsys, tmp_path):
        entries = hb_member_entries()
        del entries["s2s1"]
        path = write_tuple(tmp_path, entries)
        code, _, err = run(capsys, "gkm-check", "--ring", "Hb", "--file", path)
        assert code == 2
        assert "s2s1" in err

    def test_unknown_vertex(self, capsys, tmp_path):
        entries = hb_member_entries()
        entries["s9"] = "b1"
        path = write_tuple(tmp_path, entries)
        code, _, err = run(capsys, "gkm-check", "--ring", "Hb", "--file", path)
        assert code == 2
        assert "s9" in err

    def test_non_string_entry(self, capsys, tmp_path):
        entries = hb_member_entries()
        entries["1"] = 42
        path = write_tuple(tmp_path, entries)
        code, _, err = run(capsys, "gkm-check", "--ring", "Hb", "--file", path)
        assert code == 2

    @pytest.mark.parametrize(
        "template, key",
        [
            ('{{"entries": {{"1": "b1", {rest}, "1": "b2"}}}}', "'1'"),
            ('{{"ring": "Hb", "ring": "Hb", "entries": {{"1": "b1", {rest}}}}}', "'ring'"),
        ],
    )
    def test_duplicate_json_key_rejected(self, capsys, tmp_path, template, key):
        rest = ", ".join(f'"{name}": "b1"' for name in SIGMA3_NAMES[1:])
        path = tmp_path / "dup.json"
        path.write_text(template.format(rest=rest))
        code, out, err = run(capsys, "gkm-check", "--ring", "Hb", "--file", str(path))
        assert code == 2
        assert out == ""
        assert f"duplicate JSON key {key}" in err

    def test_unparseable_entry_names_vertex(self, capsys, tmp_path):
        entries = hb_member_entries()
        entries["s1s2"] = "b1 + "
        path = write_tuple(tmp_path, entries)
        code, _, err = run(capsys, "gkm-check", "--ring", "Hb", "--file", path)
        assert code == 2
        assert "s1s2" in err


class TestExpand:
    def test_polynomial_expansion_reports_degree(self, capsys):
        code, out, _ = run(capsys, "expand", "b3^2", "--ring", "Hb")
        assert code == 0
        assert "graded degree: 16" in out

    def test_character_expansion_lists_weights(self, capsys):
        code, out, _ = run(capsys, "expand", "y5*y1^-1 - 1", "--ring", "RT")
        assert code == 0
        assert out.count("weight") == 2
        assert "multiplicity" in out

    def test_character_weight_lines_are_exact(self, capsys):
        code, out, _ = run(capsys, "expand", "--ring", "RT", "--", "y5 - 2*y1^-1")
        assert code == 0
        assert out == (
            "y5 - 2*y1^-1\n"
            "  weight ('-1', '0', '0', '0')  multiplicity -2\n"
            "  weight ('1/2', '1/2', '1/2', '1/2')  multiplicity 1\n"
        )

    def test_x_ring_expression(self, capsys):
        code, out, _ = run(capsys, "expand", "X1*X2 - X3", "--ring", "RX")
        assert code == 0

    def test_x_ring_refuses_non_integral_element(self, capsys):
        # the same refusal as gkm-check --ring RX gives for such an entry
        code, out, err = run(capsys, "expand", "--ring", "RX", "--", "1/2*X1")
        assert code == 2
        assert out == ""
        assert err == "error: 1/2*X1 must have integer coefficients in ring RX\n"
        code, out, _ = run(capsys, "expand", "--ring", "RX", "--", "2/2*X1")
        assert (code, out) == (0, "X1\n  graded degree: 1\n")

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "expand", "y1 + ", "--ring", "RT")
        assert code == 2
        assert "error:" in err

    def test_unknown_variable_exits_2(self, capsys):
        code, _, err = run(capsys, "expand", "zz + 1", "--ring", "Hb")
        assert code == 2

    @pytest.mark.parametrize("expr", ["(" * 5000 + "b1" + ")" * 5000, "-" * 5000 + "b1"])
    def test_deep_nesting_exits_2(self, capsys, expr):
        code, out, err = run(capsys, "expand", "--ring", "Hb", "--", expr)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "(at position 100)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "ring, expr",
        [("Hb", "(b1+b2+1)^5000"), ("RT", "y5^2000000"), ("Hb", "b1^100000000000000000000000")],
    )
    def test_oversized_power_exits_2(self, capsys, ring, expr):
        start = time.perf_counter()
        code, out, err = run(capsys, "expand", "--ring", ring, "--", expr)
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("expr, position", [("b1^\u00b2", 3), ("\u00b2", 0)])
    def test_non_decimal_digit_exits_2(self, capsys, expr, position):
        # '²' is a digit to str.isdigit, but int() refuses it
        code, out, err = run(capsys, "expand", "--ring", "Hb", "--", expr)
        assert code == 2
        assert out == ""
        assert err == f"error: unexpected character '\u00b2' (at position {position})\n"

    def test_oversized_product_exits_2(self, capsys):
        expr = "(b1+b2+1)^40*(b1+b2+1)^40"  # 861 * 861 term pairs
        start = time.perf_counter()
        code, out, err = run(capsys, "expand", "--ring", "Hb", "--", expr)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err == (
            "error: factors of 861 and 861 terms make more than 50000 term pairs "
            "(at position 12)\n"
        )

    @pytest.mark.parametrize("expr", ["7" * 5000, "1/" + "7" * 5000, "b1 - " + "7" * 5000 + "*b2"])
    def test_overlong_literal_exits_2(self, capsys, expr):
        code, out, err = run(capsys, "expand", "--ring", "Hb", "--", expr)
        assert code == 2
        assert out == ""
        assert err.startswith("error: numeric literal longer than")
        assert f"(at position {expr.index('7')})" in err
        assert "Traceback" not in err

    def test_long_flat_sum_expands(self, capsys):
        code, out, _ = run(capsys, "expand", "--ring", "Hb", "--", "+".join(["b1"] * 5000))
        assert code == 0
        assert out.splitlines()[0] == "5000*b1"

    def test_invalid_ring_choice(self, capsys):
        code, _, _ = run(capsys, "expand", "b1", "--ring", "XX")
        assert code == 2

    def test_help_exits_0(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0


class TestWarmProcess:
    def test_reused_parser_answers_as_a_fresh_one(self, capsys, monkeypatch, tmp_path):
        member = write_tuple(tmp_path, hb_member_entries(), ring="Hb")
        entries = hb_member_entries()
        entries["s1"] += " + 1"
        non_member = write_tuple(tmp_path, entries, filename="near-miss.json")
        requests = [
            ("verify", "bogus"),
            ("--help",),
            ("expand", "--help"),
            ("expand", "--ring", "RT", "--", "y5 - 2*y1^-1"),
            ("expand", "--ring", "Hb", "--", "b3^2 + 1/2"),
            ("gkm-check", "--ring", "Hb", "--file", member),
            ("gkm-check", "--ring", "Hb", "--file", non_member),
            ("gkm-check", "--ring", "RX"),
        ]
        fresh = []
        for argv in requests:
            cli._parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert [code for code, _, _ in fresh] == [2, 0, 0, 0, 0, 0, 1, 2]

        built = []
        build_parser = cli.build_parser

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._parser.cache_clear()
        warm = [run(capsys, *argv) for argv in requests + requests]
        assert warm == fresh + fresh
        assert len(built) == 1
