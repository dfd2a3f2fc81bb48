"""End-to-end acceptance gate: one test per headline verification target.

Every test is self-contained, runs in exact rational arithmetic, and checks
its own runtime budget.

test_02 and test_03 check the Poincare duality pairing of the six-dimensional
ring, in the degree-8 variables beta and in the rank-two variables lambda.
Its degree-8 classes pair by *cross* index, not by same index (every "="
below is a congruence modulo the relation ideal, and e1, e2 are the Euler
classes x1, x2 rewritten in beta):

- The relations are the elementary symmetric polynomials sigma2 and sigma3
  of (beta1, beta2-beta1, -beta2).  sigma2 = 0 gives
  beta2^2 = beta1*beta2 - beta1^2.  Substituting into
  sigma3 = beta1^2*beta2 - beta1*beta2^2 gives sigma3 = beta1^3, so
  beta1^3 = 0.
- e1(e1+e2)/3 = beta1^2, so the same-index product beta1 * e1(e1+e2)/3
  reduces to beta1^3 = 0.
- The top class e1*e2*(e1+e2)/6 reduces to beta1*beta2^2.  That monomial is
  standard for the Groebner basis {beta1^2 - beta1*beta2 + beta2^2, beta2^3},
  whose standard monomials 1, beta1, beta2, beta1*beta2, beta2^2,
  beta1*beta2^2 span the ring, so the top class is nonzero.  The
  cross-index products beta1 * e2(e1+e2)/3 and beta2 * e1(e1+e2)/3 reduce
  to it.
- The lambda model has the same relations in lam1, lam2, and
  gamma1*gamma3/3 = lam1^2.  So lam1 * gamma1*gamma3/3 = lam1^3 = 0,
  lam1 * gamma2*gamma3/3 reaches the top class, and the top class reduces
  to lam1*lam2^2, which is not zero.

The same-index pairing as stated in the source material is recorded by
PresentationReport.stated_duality_pairing and
FracIdentityReport.stated_form_in_ideal, and tests/test_cohomology.py
checks that both record it as a discrepancy.
"""

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from flagoct.cohomology import (
    B_RING,
    BETA_RING,
    E_RING,
    BggContext,
    RestrictionTable,
    coinvariant_generators,
    e_to_beta,
    verify_equivariant_relations,
)
from flagoct.gkm import (
    check_membership,
    free_rank_check,
    p1_p2_equivalence,
    random_arbitrary_tuple,
    random_membership_tuple,
    realize_in_bt,
)
from flagoct.groebner import (
    buchberger,
    graded_quotient_dimensions,
    quotient_total_dimension,
)
from flagoct.jordan import (
    JordanMatrix,
    bracket_lemma_check,
    jordan_determinant,
    root_space_check,
    slot_of_root,
)
from flagoct.ktheory import (
    X_RING,
    equivariant_tuple,
    expand_x_polynomial,
    random_x_polynomial,
    to_x_polynomial,
    verify_factorizations,
    weyl_act,
    x_action_permutations,
    x_character,
)
from flagoct.octonion import Octonion, associativity_witness
from flagoct.poly import PolyRing, elementary_symmetric, pairwise_coprime
from flagoct.suites import SUITE_NAMES, run_suite
from flagoct.weyl import (
    SIGMA3_NAMES,
    cell_dimension_polynomial,
    coset_partition_of_f4_positives,
    inversion_set,
    semidirect_report,
    sigma3_by_name,
    sigma_tilde_generators,
    spin8_weyl,
    transposition,
)


def test_01_coinvariant_quotient_has_dimensions_1_2_2_1():
    start = time.monotonic()
    gb = buchberger(coinvariant_generators(E_RING))
    dims = graded_quotient_dimensions(gb, 24)
    assert {d: n for d, n in dims.items() if n} == {0: 1, 8: 2, 16: 2, 24: 1}
    assert quotient_total_dimension(gb) == 6
    assert time.monotonic() - start < 1.0


def test_02_degree8_identities_modulo_coinvariant_relations():
    start = time.monotonic()
    b1, b2 = BETA_RING.gens()
    args = (b1, b2 - b1, -b2)
    gb = buchberger(
        (elementary_symmetric(2, *args), elementary_symmetric(3, *args))
    )
    x1, x2 = E_RING.gens()
    e1, e2 = e_to_beta(x1), e_to_beta(x2)
    third = Fraction(1, 3)
    nf = gb.normal_form
    assert nf(b1 * b1 + b2 * b2 - b1 * b2) == BETA_RING.zero()
    assert nf(third * e1 * (e1 + e2)) == nf(b1 * b1)
    assert nf(third * e2 * (e1 + e2)) == nf(b2 * b2)
    # the top class reduces to the standard monomial beta1*beta2^2, so it
    # is nonzero; the cross-index products reach it, and the same-index
    # products are cubes of degree-8 classes, which vanish
    top = Fraction(1, 6) * e1 * e2 * (e1 + e2)
    assert nf(top) == b1 * b2 * b2
    assert nf(b1 * (third * e2 * (e1 + e2))) == nf(top)
    assert nf(b2 * (third * e1 * (e1 + e2))) == nf(top)
    assert nf(b1 * (third * e1 * (e1 + e2))) == BETA_RING.zero()
    assert nf(b2 * (third * e2 * (e1 + e2))) == BETA_RING.zero()
    assert time.monotonic() - start < 1.0


def _random_lambda_poly(rng, ring):
    lam1, lam2 = ring.gens()
    p = ring.zero()
    for _ in range(rng.randint(1, 5)):
        coeff = Fraction(rng.randint(-4, 4))
        p = p + coeff * lam1 ** rng.randint(0, 3) * lam2 ** rng.randint(0, 3)
    return p


def test_03_divided_difference_chain_and_top_pairing():
    start = time.monotonic()
    ctx = BggContext()
    lam1, lam2 = ctx.lam
    g1, g2, g3 = ctx.gamma[1], ctx.gamma[2], ctx.gamma[3]
    third = Fraction(1, 3)
    basis = ctx.bgg_basis()
    assert basis["top"] == Fraction(1, 6) * g1 * g2 * g3
    assert basis["codim1_a"] == third * g2 * g3
    assert basis["codim1_b"] == third * g1 * g3
    assert basis["deg1_a"] == lam1
    assert basis["deg1_b"] == lam2
    assert basis["unit"] == ctx.ring.one()
    # successive divided differences walk down the chain and end at 1
    assert ctx.divided_difference(1, basis["top"]) == basis["codim1_a"]
    assert ctx.divided_difference(2, basis["top"]) == basis["codim1_b"]
    assert ctx.divided_difference(2, basis["codim1_a"]) == lam1
    assert ctx.divided_difference(1, basis["codim1_b"]) == lam2
    assert ctx.divided_difference(1, lam1) == ctx.ring.one()
    assert ctx.divided_difference(2, lam2) == ctx.ring.one()
    # the operators square to zero on 100 seeded polynomials
    rng = random.Random(2)
    for _ in range(100):
        f = _random_lambda_poly(rng, ctx.ring)
        for k in (1, 2):
            once = ctx.divided_difference(k, f)
            assert ctx.divided_difference(k, once) == ctx.ring.zero()
    gb = ctx.symmetric_ideal_basis()
    top = ctx.top_class()
    # the top class reduces to the standard monomial lam1*lam2^2, so it is
    # nonzero; the cross-index pairings reach it modulo the symmetric ideal,
    # and the same-index products reduce to zero (as in test_02)
    assert gb.normal_form(top) == lam1 * lam2 * lam2
    assert gb.contains(lam1 * (third * g2 * g3) - top)
    assert gb.contains(lam2 * (third * g1 * g3) - top)
    assert gb.normal_form(lam1 * (third * g1 * g3)).is_zero()
    assert gb.normal_form(lam2 * (third * g2 * g3)).is_zero()
    assert time.monotonic() - start < 1.0


def test_04_fixed_point_restrictions_satisfy_symmetric_relations():
    start = time.monotonic()
    rep = verify_equivariant_relations()
    assert rep.passed
    assert rep.failures == ()
    table = RestrictionTable()
    b1, b2 = B_RING.gens()
    expected = {
        i: elementary_symmetric(i, 2 * b1 + b2, -b1 + b2, -(b1 + 2 * b2))
        for i in (2, 3)
    }
    checked = 0
    for name in SIGMA3_NAMES:
        u, v, w = table.row(sigma3_by_name(name))
        assert w == u + v  # the third image is the sum of the first two
        for i in (2, 3):
            got = elementary_symmetric(i, 2 * u + v, -u + v, -(u + 2 * v))
            assert got == expected[i], (name, i)
            checked += 1
    assert checked == 12  # ten beyond the identity row, which checks itself
    assert time.monotonic() - start < 1.0


def test_05_moment_graph_membership_equivalence_and_free_ranks():
    start = time.monotonic()
    rng = random.Random(0)
    for _ in range(200):
        assert check_membership(random_membership_tuple(rng)).ok
    rng = random.Random(1)
    for _ in range(200):
        p1, p2, agree = p1_p2_equivalence(random_arbitrary_tuple(rng))
        assert agree and p1 == p2
    table = free_rank_check(16)
    assert [row[0] for row in table] == list(range(0, 17, 2))
    for degree, computed, predicted in table:
        assert computed == predicted, (degree, computed, predicted)
    assert {d: c for d, c, _ in table} == {
        0: 1, 2: 0, 4: 1, 6: 0, 8: 5, 10: 0, 12: 6, 14: 0, 16: 15,
    }
    assert time.monotonic() - start < 60.0


def test_06_euler_products_square_and_are_coprime():
    start = time.monotonic()
    real = realize_in_bt()
    assert real.squares_match_display
    assert real.passed
    for product in real.products():
        assert len(product.forms) == 4  # four linear factors each
    ok, witness = pairwise_coprime(list(real.products()))
    assert ok and witness is None
    assert real.canonical_signs == (-1, 1, 1)
    assert real.additivity_with_canonical_signs
    assert time.monotonic() - start < 1.0


def test_07_octonion_and_jordan_exact_identities():
    start = time.monotonic()

    def rand_oct(rng):
        return Octonion.from_coords(
            tuple(rng.randint(-5, 5) for _ in range(8))
        )

    rng = random.Random(3)
    for _ in range(100):
        x, y = rand_oct(rng), rand_oct(rng)
        assert (x * y).norm_squared() == x.norm_squared() * y.norm_squared()
        assert x * (x * y) == (x * x) * y
        assert (y * x) * x == y * (x * x)

    a, b, c, assoc = associativity_witness()
    assert (a * b) * c == Octonion.unit(8)
    assert a * (b * c) == -Octonion.unit(8)
    assert assoc == Octonion.unit(8).scale(2)
    assert assoc != Octonion.zero()

    # double-commutator eigenvalue equation for every off-diagonal basis
    # vector of the 27-dimensional algebra, against three diagonal matrices
    diagonals = [
        JordanMatrix.diagonal(1, 2, -3),
        JordanMatrix.diagonal(0, 1, -1),
        JordanMatrix.diagonal(3, -1, -2),
    ]
    count = 0
    for k in (1, 2, 3):
        slot = slot_of_root(k)
        for i in range(1, 9):
            vector = JordanMatrix.slot_unit(slot, i)
            for x in diagonals:
                assert root_space_check(x, vector, k)
                count += 1
    assert count == 72  # 24 basis vectors x 3 diagonal test matrices

    # operator bracket identities as exact 27x27 matrix equalities
    rng = random.Random(4)
    for _ in range(50):
        v1, v2 = rng.randint(-3, 3), rng.randint(-3, 3)
        x = JordanMatrix.diagonal(v1, v2, -v1 - v2)
        a27 = JordanMatrix.random_traceless(rng) + JordanMatrix.identity().scale(
            rng.randint(-3, 3)
        )
        assert bracket_lemma_check(x, a27)

    # the cubic norm of a diagonal matrix is the product of its entries,
    # symbolically via the same trace formula the implementation uses
    ring = PolyRing.make(("x1", "x2", "x3"), (1, 1, 1))
    x1, x2, x3 = ring.gens()
    p1 = x1 + x2 + x3
    p2 = x1**2 + x2**2 + x3**2
    p3 = x1**3 + x2**3 + x3**3
    det = (
        Fraction(1, 3) * p3
        - Fraction(1, 2) * p2 * p1
        + Fraction(1, 6) * p1**3
    )
    assert det == x1 * x2 * x3
    for _ in range(5):
        u, v, w = (
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)
        )
        assert jordan_determinant(JordanMatrix.diagonal(u, v, w)) == u * v * w

    assert time.monotonic() - start < 10.0


def test_08_reflection_group_combinatorics():
    start = time.monotonic()
    rep = semidirect_report()
    assert rep.spin8_order == 192
    assert rep.f4_order == 1152
    assert rep.normal
    assert rep.intersection_trivial
    assert rep.orders_multiply
    assert rep.complement_order == 6
    assert rep.braid_relation
    assert rep.ok()
    gens = sigma_tilde_generators()
    assert (
        gens["omega5"]
        == gens["omega4"] * gens["omega5_minus_omega4"] * gens["omega4"]
    )
    part = coset_partition_of_f4_positives()
    assert [
        len(part[k]) for k in ("omega4", "omega5_minus_omega4", "omega5")
    ] == [4, 4, 4]
    assert len(part["trivial"]) == 12
    expected_inversions = {
        "1": set(),
        "s1": {1},
        "s2": {2},
        "s1s2": {1, 3},
        "s2s1": {2, 3},
        "s1s2s1": {1, 2, 3},
    }
    for name in SIGMA3_NAMES:
        assert (
            set(inversion_set(sigma3_by_name(name))) == expected_inversions[name]
        ), name
    assert cell_dimension_polynomial() == {0: 1, 8: 2, 16: 2, 24: 1}
    assert time.monotonic() - start < 10.0


def test_09_character_factorizations_invariance_and_x_bridge():
    start = time.monotonic()
    rep = verify_factorizations()
    assert rep.x1_minus_x2_ok
    assert rep.x1_minus_x3_ok
    assert rep.x3_minus_x2_ok
    assert rep.passed

    # the four basic characters are invariant under the full 192-element group
    chars = [x_character(i) for i in (1, 2, 3, 4)]
    group = list(spin8_weyl())
    assert len(group) == 192
    for w in group:
        for f in chars:
            assert weyl_act(w, f) == f

    # the three complement reflections act on the first three characters by
    # transpositions, and together realize all three transpositions
    perms = x_action_permutations()
    assert perms["omega4"] == transposition(1, 2)
    assert perms["omega5_minus_omega4"] == transposition(1, 3)
    assert perms["omega5"] == transposition(2, 3)
    assert set(perms.values()) == {
        transposition(1, 2),
        transposition(2, 3),
        transposition(1, 3),
    }

    # expansion into the character ring and re-expression are mutually
    # inverse on all 70 monomials of total degree at most 4
    count = 0
    for exps in itertools.product(range(5), repeat=4):
        if sum(exps) <= 4:
            monomial = X_RING.monomial(list(exps), 1)
            assert to_x_polynomial(expand_x_polynomial(monomial)) == monomial
            count += 1
    assert count == 70

    # the two membership tests agree on 100 seeded tuples built from
    # X-polynomials (a mix of guaranteed members and arbitrary tuples)
    rng = random.Random(0)
    members = 0
    for trial in range(100):
        if trial % 3 == 0:
            entries_x = equivariant_tuple(random_x_polynomial(rng))
        else:
            entries_x = {
                name: random_x_polynomial(rng) for name in SIGMA3_NAMES
            }
        entries_rt = {
            name: expand_x_polynomial(p) for name, p in entries_x.items()
        }
        verdict_x = check_membership(entries_x).ok
        verdict_rt = check_membership(entries_rt).ok
        assert verdict_x == verdict_rt, trial
        members += verdict_x
    assert members >= 30  # agreement covers both verdicts, not vacuously
    assert 100 - members >= 30

    assert time.monotonic() - start < 60.0


# the checks each suite fails under --corrupt at seed 0
CORRUPT_FAILURES = {
    "octonion": {"composition-law"},
    "jordan": {"diagonal-determinant"},
    "roots": {"braid-identity", "inversion-table"},
    "cohomology": {"equivariant-relations"},
    "gkm": {"membership-random"},
    "ktheory": {"X1-X2-factorization"},
}

# every check's status under `verify all --seed 0 --corrupt`, keyed "suite.check"
CORRUPT_STATUSES = json.loads(
    (Path(__file__).resolve().parent / "fixtures" / "verify_all_seed0_corrupt_statuses.json")
    .read_text(encoding="utf-8")
)


def test_10_every_suite_detects_its_corrupted_fixture():
    assert set(CORRUPT_FAILURES) == set(SUITE_NAMES)
    for name in SUITE_NAMES:
        clean = run_suite(name, seed=0)
        assert clean.passed, name
        controls = [c for c in clean.checks if "negative-control" in c.id]
        assert controls, f"suite {name} has no negative-control checks"
        assert all(c.status == "pass" for c in controls), name
        corrupted = run_suite(name, seed=0, corrupt=True)
        failing = [c.id for c in corrupted.checks if c.status == "fail"]
        assert failing, f"corrupted {name} run produced no failures"
        assert set(failing) <= {c.id for c in clean.checks}, name
        assert set(failing) == CORRUPT_FAILURES[name], name
        assert {f"{name}.{c.id}": c.status for c in corrupted.checks} == {
            k: v for k, v in CORRUPT_STATUSES.items() if k.startswith(f"{name}.")
        }, name
        # the falsified fixture is still rejected by its control
        assert all(
            c.status == "pass"
            for c in corrupted.checks
            if "negative-control" in c.id
        ), name
