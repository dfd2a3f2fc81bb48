"""Command-line interface: subcommands, exit codes, file validation."""

import json
import random
import re
import time
from pathlib import Path

import pytest

from flagoct import cli
from flagoct.cli import MAX_TUPLE_FILE_BYTES, main
from flagoct.cohomology import B_RING
from flagoct.gkm import (
    MAX_DEGREE_CUTOFF,
    RHO_RING,
    RINGS,
    free_rank_check,
    membership_ring,
    random_membership_tuple,
)
from flagoct.ktheory import X_RING, Character, x_character
from flagoct.parsing import MAX_RESULT_DIGITS, MAX_TEXT_LENGTH, MAX_WORK, parse_and_evaluate
from flagoct.poly import ResourceLimitError
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
    return {name: str(p) for name, p in t.items()}


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
        code, _, err = run(capsys, "verify", "gkm", "--degree-cutoff", "26")
        assert code == 2
        assert "degree-cutoff" in err

    def test_cutoff_twenty_four_passes_with_every_row_equal(self, capsys):
        code, out, _ = run(capsys, "verify", "gkm", "--degree-cutoff", "24", "--format", "json")
        assert code == 0
        (check,) = [c for c in json.loads(out)["checks"] if c["id"] == "free-rank"]
        assert check["status"] == "pass"
        rows = re.findall(r"deg (\d+): (\d+)/(\d+)", check["details"])
        assert [int(d) for d, _, _ in rows] == list(range(0, 25, 2))
        assert all(c == p for _, c, p in rows)
        assert ("24", "35", "35") in rows

    def test_one_constant_bounds_the_degree_cutoff(self, capsys):
        # the free-rank check, the CLI's range check and the option's help
        # all read MAX_DEGREE_CUTOFF, so the cap is raised in one place
        top = MAX_DEGREE_CUTOFF
        with pytest.raises(ResourceLimitError, match=f"bounded at degree {top}$"):
            free_rank_check(top + 2)
        code, out, _ = run(capsys, "verify", "octonion", "--degree-cutoff", str(top))
        assert code == 0 and f"degree cutoff: {top}" in out
        assert run(capsys, "verify", "octonion", "--degree-cutoff", str(top + 1)) == (
            2, "", f"error: --degree-cutoff must be between 0 and {top}\n"
        )
        code, out, _ = run(capsys, "verify", "--help")
        assert code == 0 and f"free-rank table (max {top})" in " ".join(out.split())

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

    def test_overlong_entry_exits_2(self, capsys, tmp_path):
        entries = hb_member_entries()
        entries["s2"] = "b1" + " " * MAX_TEXT_LENGTH
        path = write_tuple(tmp_path, entries)
        code, out, err = run(capsys, "gkm-check", "--ring", "Hb", "--file", path)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: entry 's2': expression longer than {MAX_TEXT_LENGTH} characters "
            f"(at position {MAX_TEXT_LENGTH})\n"
        )

    def test_file_size_cap(self, capsys, tmp_path, monkeypatch):
        member = json.dumps({"ring": "Hb", "entries": hb_member_entries()})
        path = tmp_path / "padded.json"
        # whitespace padding up to the cap is still read and decided
        path.write_text(member + " " * (MAX_TUPLE_FILE_BYTES - len(member)))
        assert run(capsys, "gkm-check", "--ring", "Hb", "--file", str(path))[0] == 0
        path.write_text(member + " " * (MAX_TUPLE_FILE_BYTES + 1 - len(member)))
        reads = []
        real_open = open

        def recording_open(*args, **kwargs):
            fh = real_open(*args, **kwargs)
            real_read = fh.read
            fh.read = lambda *n: reads.append(n) or real_read(*n)
            return fh

        monkeypatch.setattr("builtins.open", recording_open)
        code, out, err = run(capsys, "gkm-check", "--ring", "Hb", "--file", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: {path} is larger than {MAX_TUPLE_FILE_BYTES} bytes\n"
        assert reads == [(MAX_TUPLE_FILE_BYTES + 1,)]

    @pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a": ', "}")], ids=["arrays", "objects"])
    @pytest.mark.parametrize("depth", [1200, None], ids=["1200", "cap"])
    def test_deeply_nested_json_exits_2(self, capsys, tmp_path, opening, closing, depth):
        # the JSON decoder recurses once per level, so a file nested past the
        # interpreter's recursion limit is refused, up to the size cap
        head, tail = '{"entries": ', "}"
        if depth is None:
            depth = (MAX_TUPLE_FILE_BYTES - len(head + tail) - 1) // len(opening + closing)
        text = head + opening * depth + "1" + closing * depth + tail
        assert len(text) <= MAX_TUPLE_FILE_BYTES
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, out, err = run(capsys, "gkm-check", "--ring", "Hb", "--file", str(path))
        assert (code, out, err) == (2, "", f"error: {path} is nested too deeply\n")
        # and the same process answers the next request
        member = write_tuple(tmp_path, hb_member_entries(), ring="Hb", filename="member.json")
        ok = "ok: tuple satisfies all edge conditions in ring Hb\n"
        assert run(capsys, "gkm-check", "--ring", "Hb", "--file", member) == (0, ok, "")

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"ring": "Hb", "entries": {"1": "b1 \u00e9"}}'.encode("latin-1"))
        code, out, err = run(capsys, "gkm-check", "--ring", "Hb", "--file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {path} is not valid UTF-8") and "Traceback" not in err

    def test_character_difference_too_wide_for_division_exits_2(self, capsys, tmp_path):
        # doubled coordinates of +-16000 in two directions: the shifted
        # difference has a total degree of 64000, past the 15-bit field limit
        up = "*".join(["y1^1000"] * 8 + ["y2^1000"] * 8)
        entries = {name: "1" for name in SIGMA3_NAMES}
        entries["1"], entries["s1"] = up, up.replace("^", "^-")
        code, out, err = run(capsys, "gkm-check", "--ring", "RT", "--file", write_tuple(tmp_path, entries))
        assert code == 2
        assert out == ""
        assert err == "error: a total degree past 32767 does not fit 16-bit fields\n"

    def test_unparseable_entry_names_vertex(self, capsys, tmp_path):
        entries = hb_member_entries()
        entries["s1s2"] = "b1 + "
        path = write_tuple(tmp_path, entries)
        code, _, err = run(capsys, "gkm-check", "--ring", "Hb", "--file", path)
        assert code == 2
        assert "s1s2" in err


class TestRings:
    """The --ring names are those of gkm.RINGS, and each name evaluates into
    the ring whose tuples membership_ring gives that name."""

    # the coefficient ring of each name, written out independently of RINGS
    EXPECTED = {"Hb": B_RING, "HT": RHO_RING, "RT": Character, "RX": X_RING}

    def test_the_names_in_order(self):
        assert list(RINGS) == list(self.EXPECTED)

    @pytest.mark.parametrize("name", list(RINGS))
    def test_each_name_round_trips(self, name, capsys):
        assert run(capsys, "expand", "1", "--ring", name)[0] == 0
        one = parse_and_evaluate("1", cli._context_for(name))
        assert (type(one) if isinstance(one, Character) else one.ring) == self.EXPECTED[name]
        assert membership_ring(dict.fromkeys(SIGMA3_NAMES, one)) == name

    @pytest.mark.parametrize("name", ["XX", "hb", "R", "Hb ", ""])
    def test_any_other_name_exits_2(self, name, capsys, tmp_path):
        path = write_tuple(tmp_path, hb_member_entries())
        assert run(capsys, "expand", "1", "--ring", name)[0] == 2
        assert run(capsys, "gkm-check", "--ring", name, "--file", path)[0] == 2


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

    def test_coefficient_growth_exits_2(self, capsys):
        # 1001 terms, within MAX_POWER_TERMS, but coefficients of about 2300 digits
        expr = "(1/3*b1+1/7*b2)^1000"
        start = time.perf_counter()
        code, out, err = run(capsys, "expand", "--ring", "Hb", "--", expr)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err == (
            "error: this base to the power 1000 may have coefficients of more than "
            "1500 digits (at position 15)\n"
        )

    @pytest.mark.parametrize("ring, tail", [("Hb", ""), ("RX", "*X1")])
    def test_long_product_of_bounded_powers_exits_2(self, capsys, ring, tail):
        # each 3^999 has 477 digits; ten of them would print 4771 digits,
        # past Python's 4300-digit limit on str() of an int
        expr = "*".join(["3^999"] * 10) + tail
        start = time.perf_counter()
        code, out, err = run(capsys, "expand", "--ring", ring, "--", expr)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        stars = [i for i, c in enumerate(expr) if c == "*"]
        assert err == (
            f"error: this product may have coefficients of more than {MAX_RESULT_DIGITS} "
            f"digits (at position {stars[7]})\n"
        )
        # eight factors (3816 digits) still print
        code, out, _ = run(capsys, "expand", "--ring", ring, "--", "*".join(["3^999"] * 8) + tail)
        assert code == 0
        assert out.splitlines()[0] == str(3 ** (999 * 8)) + tail

    def test_long_chain_of_bounded_products_exits_2(self, capsys):
        # P - P for P the product of 400 factors (b1+b2)^9: every step stays
        # within its own bounds, but the text as a whole passes MAX_WORK
        p = "*".join(["(b1+b2)^9"] * 400)
        start = time.perf_counter()
        code, out, err = run(capsys, "expand", "--ring", "Hb", "--", f"{p}-{p}")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        match = re.fullmatch(
            rf"error: this expression takes more than {MAX_WORK} term-digits of work "
            r"\(at position (\d+)\)\n",
            err,
        )
        assert match and p[int(match.group(1))] == "*"

    def test_sum_past_the_result_digits_exits_2(self, capsys):
        # pairwise coprime denominators of about 995 digits each: the
        # denominator of the sum is their product
        dens = [2**3300, 3**2090, 5**1420, 7**1180, 11**955]
        assert all(len(str(d)) < 1000 for d in dens)
        expr = " + ".join(f"1/{d}" for d in dens)
        code, out, err = run(capsys, "expand", "--ring", "Hb", "--", expr[: expr.rindex(" + ")])
        assert code == 0
        code, out, err = run(capsys, "expand", "--ring", "Hb", "--", expr)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: this sum has coefficients of more than {MAX_RESULT_DIGITS} digits "
            f"(at position {expr.rindex('+')})\n"
        )

    def test_exponent_past_the_packed_field_exits_2(self, capsys):
        expr = "(b1^1000)^32*b1^767*b1"
        code, out, err = run(capsys, "expand", "--ring", "Hb", "--", expr)
        assert code == 2
        assert out == ""
        assert err == (
            "error: a total degree past 32767 does not fit 16-bit fields "
            f"(at position {expr.rindex('*')})\n"
        )
        code, out, _ = run(capsys, "expand", "--ring", "Hb", "--", expr[: expr.rindex("*")])
        assert code == 0 and out.startswith("b1^32767\n")

    def test_overlong_expression_exits_2(self, capsys):
        code, out, err = run(capsys, "expand", "--ring", "Hb", "--", "b1+" * 40_000 + "b1")
        assert code == 2
        assert out == ""
        assert err == (
            f"error: expression longer than {MAX_TEXT_LENGTH} characters "
            f"(at position {MAX_TEXT_LENGTH})\n"
        )

    def test_long_flat_sum_expands(self, capsys):
        code, out, _ = run(capsys, "expand", "--ring", "Hb", "--", "+".join(["b1"] * 5000))
        assert code == 0
        assert out.splitlines()[0] == "5000*b1"

    def test_flat_sum_of_8000_distinct_terms_expands(self, capsys):
        # 95 KB: each sum adds one term into the value so far, so the text's
        # work grows with its length, not with its square
        text = "+".join(f"b1^{i % 1000}*b2^{i // 1000}" for i in range(8000))
        code, out, _ = run(capsys, "expand", "--ring", "Hb", "--", text)
        assert code == 0
        assert out.splitlines()[0].count("+") == 7999

    def test_invalid_ring_choice(self, capsys):
        code, _, _ = run(capsys, "expand", "b1", "--ring", "XX")
        assert code == 2

    def test_help_exits_0(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0


EXPAND_PINS = json.loads(
    (Path(__file__).resolve().parent / "fixtures" / "expand_pins.json").read_text(encoding="utf-8")
)


class TestPinnedExpansions:
    """``fixtures/expand_pins.json`` holds the stdout of ``expand`` requests in
    every ring, written by the code before the packed sparse core: the
    printed term order and every coefficient stay byte-identical."""

    @pytest.mark.parametrize("pin", EXPAND_PINS, ids=lambda p: f"{p['ring']}:{p['expr']}")
    def test_output_matches_the_pin(self, capsys, pin):
        code, out, _ = run(capsys, "expand", "--ring", pin["ring"], "--", pin["expr"])
        assert (code, out) == (pin["exit"], pin["stdout"])


GKM_CHECK_PINS = json.loads(
    (Path(__file__).resolve().parent / "fixtures" / "gkm_check_pins.json").read_text(encoding="utf-8")
)


class TestPinnedGkmChecks:
    """``fixtures/gkm_check_pins.json`` holds the stdout, stderr and exit code
    of ``gkm-check`` on a member and a near miss in every ring, an HT entry
    that is not W-invariant and a fractional RX entry, written by the code
    that kept one tuple class and one check function per ring family."""

    @pytest.mark.parametrize("pin", GKM_CHECK_PINS, ids=lambda p: p["name"])
    def test_output_matches_the_pin(self, capsys, tmp_path, pin):
        path = write_tuple(tmp_path, pin["entries"], ring=pin["ring"])
        result = run(capsys, "gkm-check", "--ring", pin["ring"], "--file", path)
        assert result == (pin["exit"], pin["stdout"], pin["stderr"])


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
