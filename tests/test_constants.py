"""Memoized constants stay as they were built.

A warm process shares each memoized constant (the GKM edges, the Euler
realization, the edge divisors, the evaluation contexts, the Weyl groups,
the inversion sets, the invariant exponent vectors)
between all callers.  A caller that changed one in place would change every
later answer.  These tests run the verify suites and a batch of
``gkm-check`` requests over every ring in one process, and then compare each
constant with a fresh build made through the cache's ``__wrapped__``.
"""

import json
import sys

import pytest

from flagoct import gkm, ktheory
from flagoct.cli import main
from flagoct.gkm import RHO_RING, restriction_class_tuple
from flagoct.ktheory import tautological_tuple
from flagoct.weyl import SIGMA3_NAMES, sigma3_by_name

# every memoized function of the package, with the arguments it is called with
MEMOIZED = {
    ("gkm", "gkm_edges"): [()],
    ("cohomology", "abstract_label"): [(1,), (2,), (3,)],
    ("gkm", "generator_substitutions"): [()],
    ("gkm", "cached_realization"): [()],
    ("gkm", "_invariant_exponents"): [(0,), (8,), (12,)],
    ("ktheory", "edge_binomials"): [(1,), (2,), (3,)],
    ("ktheory", "edge_divisor_poly"): [(1,), (2,), (3,)],
    ("cli", "_context_for"): [("Hb",), ("HT",), ("RT",), ("RX",)],
    ("weyl", "spin8_weyl"): [()],
    ("weyl", "f4_weyl"): [()],
    ("weyl", "sigma_tilde_group"): [()],
    ("weyl", "inversion_set"): [(sigma3_by_name(name),) for name in SIGMA3_NAMES],
    ("weyl", "_doubled_rho"): [()],
    ("scaled", "_zero"): [()],
    ("jordan", "_operator_tables"): [()],
    ("jordan", "_slot_unit_hats"): [("p",), ("q",), ("r",)],
}

# cached, but not a value to compare: the argument parser is checked by its
# answers in test_cli.py (TestWarmProcess)
NOT_COMPARED = {("cli", "_parser")}


def memoized_functions():
    """(module, name) of every function of flagoct memoized by functools."""
    found = set()
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("flagoct."):
            continue
        short = module_name.split(".", 1)[1]
        for name, value in vars(module).items():
            if callable(value) and hasattr(value, "cache_info") and hasattr(value, "__wrapped__"):
                if value.__module__ == module_name:
                    found.add((short, name))
    return found


def tuple_requests(tmp_path):
    """Members and near-miss non-members over Hb, HT, RT and RX."""
    s1 = sum((l * l for l in gkm.l_polynomials()), RHO_RING.zero())
    members = {
        "Hb": {n: str(p) for n, p in restriction_class_tuple(1).items()},
        "HT": {n: str(s1 * gkm.realized_label(2)) for n in SIGMA3_NAMES},
        "RT": {n: "y5*y1^-1 + 2*y2 - 3" for n in SIGMA3_NAMES},
        "RX": {n: str(p) for n, p in tautological_tuple().items()},
    }
    requests = []
    for ring, entries in members.items():
        near_miss = dict(entries)
        near_miss["s1"] = f"({near_miss['s1']}) + " + ("y1" if ring == "RT" else "1")
        for member, values in ((True, entries), (False, near_miss)):
            path = tmp_path / f"{ring}-{member}.json"
            path.write_text(json.dumps({"ring": ring, "entries": values}))
            requests.append((["gkm-check", "--ring", ring, "--file", str(path)], 0 if member else 1))
    return requests


def test_memoized_constants_equal_fresh_builds(tmp_path, capsys):
    assert main(["verify", "all", "--format", "json"]) == 0
    for argv, expected in tuple_requests(tmp_path) * 2:
        assert main(argv) == expected, argv
    assert main(["expand", "--ring", "RT", "--", "y5 - 2*y1^-1"]) == 0
    capsys.readouterr()

    for (module_name, name), calls in MEMOIZED.items():
        fn = getattr(sys.modules[f"flagoct.{module_name}"], name)
        for args in calls:
            cached, fresh = fn(*args), fn.__wrapped__(*args)
            assert fresh is not cached
            if module_name == "cli":
                # evaluation contexts: compare what they hold
                assert vars(cached) == vars(fresh), (name, args)
            else:
                assert cached == fresh, (name, args)


def test_every_memoized_function_is_checked():
    assert memoized_functions() == set(MEMOIZED) | NOT_COMPARED


@pytest.mark.parametrize("k", [1, 2, 3])
def test_edge_divisor_is_the_product_of_its_binomials(k):
    product = ktheory.Character.one()
    for binomial in ktheory.edge_binomials(k):
        product = product * binomial
    assert ktheory.edge_divisor_char(k) == product
