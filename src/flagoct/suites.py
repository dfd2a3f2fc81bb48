"""Verification suites orchestrating every checkable statement in the package.

Each suite function returns a :class:`~flagoct.report.VerificationReport`
whose checks are deterministic for a fixed seed.  Every suite carries a
negative control: a deliberately falsified fixture that the relevant
checker must reject.  With ``corrupt=True`` the falsified fixture replaces
the genuine one, producing an honest failure (used to demonstrate that the
suite cannot pass vacuously).
"""

from __future__ import annotations

import dataclasses
import random
import time
from fractions import Fraction
from typing import Callable, Dict

from . import cohomology, gkm, jordan, ktheory, octonion, weyl
from .poly import PolyRing
from .report import VerificationReport

# ---------------------------------------------------------------------------
# octonion suite


def suite_octonion(
    seed: int = 0, degree_cutoff: int = 8, corrupt: bool = False
) -> VerificationReport:
    rep = VerificationReport("octonion", seed, degree_cutoff)
    rng = random.Random(seed)

    def corrupted_product(x: octonion.Octonion, y: octonion.Octonion):
        # falsified fixture: drops the sign flip in the second component
        return (x * y) + octonion.Octonion.unit(2).scale(Fraction(1, 7))

    pairs = [
        (octonion.Octonion.random(rng), octonion.Octonion.random(rng))
        for _ in range(100)
    ]

    product = corrupted_product if corrupt else (lambda x, y: x * y)
    comp_ok = all(
        product(x, y).norm_squared() == x.norm_squared() * y.norm_squared()
        for (x, y) in pairs
    )
    rep.add_bool(
        "composition-law",
        "N(xy) = N(x) N(y) on 100 seeded pairs",
        comp_ok,
        anchor="multiplicativity of the octonion norm",
    )

    alt_ok = all(
        x * (x * y) == (x * x) * y and (y * x) * x == y * (x * x)
        for (x, y) in pairs
    )
    rep.add_bool(
        "alternativity",
        "x(xy) = (xx)y and (yx)x = y(xx) on 100 seeded pairs",
        alt_ok,
        anchor="alternativity of the octonion product",
    )

    conj_ok = all(
        (x * x.conjugate()).is_real()
        and (x * x.conjugate()).real_part() == x.norm_squared()
        for (x, _) in pairs
    )
    rep.add_bool(
        "conjugation-norm",
        "x conj(x) = N(x) on 100 seeded elements",
        conj_ok,
        anchor="norm via conjugation",
    )

    a, b, c, assoc = octonion.associativity_witness()
    witness_ok = (
        not assoc.is_zero()
        and assoc == octonion.Octonion.unit(8).scale(2)
        and (a * b) * c == -(a * (b * c))
    )
    rep.add_bool(
        "nonassociativity-witness",
        "(e2 e3) e5 = -e2 (e3 e5), associator 2 e8",
        witness_ok,
        anchor="stored non-associativity witness",
    )

    table = octonion.multiplication_table()
    table_ok = all(table[0][j] == (1, j + 1) and table[j][0] == (1, j + 1) for j in range(8))
    table_ok = table_ok and all(table[i][i] == (-1, 1) for i in range(1, 8))
    table_ok = table_ok and all(
        table[i][j][1] != 1 and table[i][j][0] in (1, -1)
        for i in range(1, 8)
        for j in range(1, 8)
        if i != j
    )
    rep.add_bool(
        "multiplication-table",
        "unit row/column, squares -1, signed-unit products",
        table_ok,
        anchor="basis multiplication table structure",
    )

    ctrl_pairs = pairs[:10]
    control_detected = any(
        corrupted_product(x, y).norm_squared() != x.norm_squared() * y.norm_squared()
        for (x, y) in ctrl_pairs
    )
    rep.add_bool(
        "negative-control-composition",
        "falsified product is rejected by the composition-law check",
        control_detected,
        anchor="negative control",
    )
    return rep


# ---------------------------------------------------------------------------
# jordan suite


def suite_jordan(
    seed: int = 0, degree_cutoff: int = 8, corrupt: bool = False
) -> VerificationReport:
    rep = VerificationReport("jordan", seed, degree_cutoff)
    rng = random.Random(seed)

    test_diagonals = [
        jordan.JordanMatrix.diagonal(Fraction(1), Fraction(2), Fraction(-3)),
        jordan.JordanMatrix.diagonal(Fraction(0), Fraction(1), Fraction(-1)),
        jordan.JordanMatrix.diagonal(Fraction(3), Fraction(-1), Fraction(-2)),
    ]
    root_ok = True
    for x in test_diagonals:
        for k in (1, 2, 3):
            slot = jordan.slot_of_root(k)
            for i in range(1, 9):
                a = jordan.JordanMatrix.slot_unit(slot, i)
                if not jordan.root_space_check(x, a, k):
                    root_ok = False
    rep.add_bool(
        "root-space-identity",
        "[x,[x,a]] = gamma_k(x)^2 a on all 24 off-diagonal basis vectors, "
        "3 diagonal test vectors",
        root_ok,
        anchor="double-bracket eigenvalue identity",
    )

    eig_ok = all(
        jordan.operator_eigenvalue_check(x, k)
        for x in test_diagonals
        for k in (1, 2, 3)
    )
    rep.add_bool(
        "operator-eigenvalue",
        "hat-operator squares act by (gamma_k/2)^2 on each root slot",
        eig_ok,
        anchor="operator eigenvalue on root spaces",
    )

    bracket_ok = True
    for _ in range(50):
        v1 = Fraction(rng.randint(-4, 4))
        v2 = Fraction(rng.randint(-4, 4))
        x = jordan.JordanMatrix.diagonal(v1, v2, -(v1 + v2))
        a = jordan.JordanMatrix.random_traceless(rng)
        if rng.random() < 0.3:
            a = a + jordan.JordanMatrix.identity().scale(rng.randint(1, 3))
        part1, part2 = jordan.bracket_lemma_parts(x, a)
        if not (part1 and part2):
            bracket_ok = False
    rep.add_bool(
        "bracket-identities",
        "both commutator-operator identities on 50 seeded pairs "
        "(27x27 matrix equalities)",
        bracket_ok,
        anchor="commutator bracket identities",
    )

    # symbolic diagonal determinant via Newton's identity, plus numeric spots
    ring = PolyRing.make(("x1", "x2", "x3"), (1, 1, 1))
    x1, x2, x3 = ring.gens()
    p1 = x1 + x2 + x3
    p2 = x1**2 + x2**2 + x3**2
    p3 = x1**3 + x2**3 + x3**3
    symbolic = (
        Fraction(1, 3) * p3 - Fraction(1, 2) * p2 * p1 + Fraction(1, 6) * p1**3
    )
    falsified_det = Fraction(31)  # falsified fixture: det Diag(2,3,5) is 30
    numeric = jordan.jordan_determinant(
        jordan.JordanMatrix.diagonal(Fraction(2), Fraction(3), Fraction(5))
    )
    expected_product = falsified_det if corrupt else Fraction(30)
    det_ok = symbolic == x1 * x2 * x3 and numeric == expected_product
    rep.add_bool(
        "diagonal-determinant",
        "det Diag(x1,x2,x3) = x1 x2 x3 symbolically and on rational spots",
        det_ok,
        anchor="determinant of diagonal elements",
    )

    rand_det_ok = True
    for _ in range(20):
        vals = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        d = jordan.JordanMatrix.diagonal(*vals)
        if jordan.jordan_determinant(d) != vals[0] * vals[1] * vals[2]:
            rand_det_ok = False
    rep.add_bool(
        "determinant-random-diagonal",
        "det Diag(a,b,c) = abc on 20 seeded rational triples",
        rand_det_ok,
        anchor="determinant of diagonal elements",
    )

    points = [jordan.JordanMatrix.diag_unit(k) for k in (1, 2, 3)]
    proj_ok = all(jordan.is_projective_point(p) for p in points) and all(
        jordan.is_incident(points[i], points[j])
        for i in range(3)
        for j in range(3)
        if i != j
    )
    rep.add_bool(
        "projective-points",
        "diagonal idempotents are pairwise incident projective points",
        proj_ok,
        anchor="projective points and incidence",
    )

    fmt_ok = True
    for _ in range(10):
        a = jordan.JordanMatrix.random_traceless(rng)
        if jordan.parse_jordan(jordan.format_jordan(a)) != a:
            fmt_ok = False
    rep.add_bool(
        "format-roundtrip",
        "parse(format(a)) = a on 10 seeded elements",
        fmt_ok,
        anchor="text round trip",
    )

    rep.add_bool(
        "negative-control-determinant",
        "falsified determinant value 31 for Diag(2,3,5) is rejected",
        numeric != falsified_det,
        anchor="negative control",
    )
    return rep


# ---------------------------------------------------------------------------
# roots suite


def suite_roots(
    seed: int = 0, degree_cutoff: int = 8, corrupt: bool = False
) -> VerificationReport:
    rep = VerificationReport("roots", seed, degree_cutoff)

    small = weyl.spin8_weyl()
    big = weyl.f4_weyl()
    rep.add_bool(
        "weyl-order-spin8",
        "|W(Spin 8)| = 192",
        len(small) == 192,
        details=f"got {len(small)}",
        anchor="rank-4 even signed permutations",
    )
    rep.add_bool(
        "weyl-order-f4",
        "|W(F4)| = 1152",
        len(big) == 1152,
        details=f"got {len(big)}",
        anchor="full reflection group order",
    )

    sd = weyl.semidirect_report()
    rep.add_bool(
        "normality",
        "the rank-4 group is normal in the big group "
        "(generator conjugation closure)",
        sd.normal,
        anchor="normal subgroup verification",
    )
    rep.add_bool(
        "complement-subgroup",
        "the three distinguished reflections generate an order-6 complement "
        "meeting the normal subgroup trivially",
        sd.complement_order == 6 and sd.intersection_trivial and sd.orders_multiply,
        details=(
            f"complement order {sd.complement_order}, "
            f"intersection trivial: {sd.intersection_trivial}, "
            f"orders multiply: {sd.orders_multiply}"
        ),
        anchor="semidirect decomposition",
    )

    gens = weyl.sigma_tilde_generators()
    braid_lhs = gens["omega5"]
    braid_rhs = gens["omega4"] * gens["omega5_minus_omega4"] * gens["omega4"]
    if corrupt:
        braid_rhs = gens["omega4"] * gens["omega5_minus_omega4"]
    rep.add_bool(
        "braid-identity",
        "the third distinguished reflection equals the palindromic word in "
        "the other two",
        braid_lhs == braid_rhs,
        anchor="reflection braid relation",
    )

    partition = weyl.coset_partition_of_f4_positives()
    sizes = {k: len(v) for k, v in partition.items()}
    part_ok = (
        sizes.get("omega4") == 4
        and sizes.get("omega5_minus_omega4") == 4
        and sizes.get("omega5") == 4
    )
    rep.add_bool(
        "root-partition",
        "the 12 extra positive roots split 4+4+4 by coset",
        part_ok,
        details=f"sizes {sizes}",
        anchor="4+4+4 partition of short positive roots",
    )

    expected_inversions = {
        "1": frozenset(),
        "s1": frozenset({1}),
        "s2": frozenset({2}),
        "s1s2": frozenset({1, 3}),
        "s2s1": frozenset({2, 3}),
        "s1s2s1": frozenset({1, 2, 3}),
    }
    # falsified fixture: s1 inverts gamma_1, not gamma_2
    falsified_inversions = {**expected_inversions, "s1": frozenset({2})}
    inversions = {
        name: weyl.inversion_set(weyl.sigma3_by_name(name))
        for name in weyl.SIGMA3_NAMES
    }
    rep.add_bool(
        "inversion-table",
        "inversion sets match the fixed six-row table entry-for-entry",
        inversions
        == (falsified_inversions if corrupt else expected_inversions),
        anchor="inversion sets of the six elements",
    )

    cells = weyl.cell_dimension_polynomial()
    rep.add_bool(
        "cell-polynomial",
        "cell-dimension generating polynomial is 1 + 2 t^8 + 2 t^16 + t^24",
        cells == {0: 1, 8: 2, 16: 2, 24: 1},
        details=f"got {cells}",
        anchor="Poincare polynomial of the six cells",
    )

    ident = weyl.sigma3_identification()
    ident_ok = (
        ident["omega4"].name == "s2"
        and {ident[k].name for k in ident} == {"s1", "s2", "s1s2s1"}
    )
    rep.add_bool(
        "complement-identification",
        "the three reflections map to the three transpositions of the "
        "abstract symmetric group",
        ident_ok,
        anchor="complement as symmetric group on three letters",
    )

    rep.add_bool(
        "negative-control-inversions",
        "falsified inversion table is rejected",
        inversions != falsified_inversions,
        anchor="negative control",
    )
    return rep


# ---------------------------------------------------------------------------
# cohomology suite


def suite_cohomology(
    seed: int = 0, degree_cutoff: int = 8, corrupt: bool = False
) -> VerificationReport:
    rep = VerificationReport("cohomology", seed, degree_cutoff)
    rng = random.Random(seed)

    pres = cohomology.verify_presentation()
    rep.add_bool(
        "graded-dimensions",
        "quotient dimensions (1,2,2,1) in degrees 0,8,16,24; total 6",
        pres.dimensions_ok,
        details=f"got {pres.graded_dimensions}",
        anchor="Euler characteristic 6",
    )
    rep.add_bool(
        "presentation-identities",
        "beta relation, duality squares, and ideal coincidence",
        pres.beta_relation_ok
        and pres.dual_of_beta1_ok
        and pres.dual_of_beta2_ok
        and pres.ideals_coincide,
        anchor="degree-8 presentation identities",
    )
    rep.add_bool(
        "duality-pairing-form",
        "cross-index duality products equal the top class; same-index "
        "products vanish in the quotient",
        pres.cross_duality_pairing and pres.same_index_products_vanish,
        details=(
            "literally-stated same-index pairing holds: "
            f"{pres.stated_duality_pairing} (known discrepancy; the "
            "cross-index pairing is the one realized by the computation)"
        ),
        anchor="duality pairing of degree-8 classes",
    )

    frac = cohomology.verify_frac_identity()
    rep.add_bool(
        "frac-identity",
        "degree-2 times degree-4 classes represent the top class modulo the "
        "invariant ideal (cross pairing)",
        frac.passed,
        details=(
            f"stated same-index form in ideal: {frac.stated_form_in_ideal}; "
            f"cross forms in ideal: {frac.cross_form_lam1_in_ideal}, "
            f"{frac.cross_form_lam2_in_ideal}"
        ),
        anchor="sixth-of-product representation of the point class",
    )

    ctx = cohomology.BggContext()
    basis = ctx.bgg_basis()
    g1, g2, g3 = ctx.gamma[1], ctx.gamma[2], ctx.gamma[3]
    lam1, lam2 = ctx.lam
    third = Fraction(1, 3)
    expected = {
        "top": Fraction(1, 6) * g1 * g2 * g3,
        "codim1_a": third * g2 * g3,
        "codim1_b": third * g1 * g3,
        "deg1_a": lam1,
        "deg1_b": lam2,
        "unit": ctx.ring.one(),
    }
    chain_ok = all(basis[k] == expected[k] for k in expected)
    rep.add_bool(
        "bgg-chain",
        "divided differences of the top class reproduce the five basis "
        "polynomials plus 1",
        chain_ok,
        anchor="divided-difference basis chain",
    )

    rep.add_bool(
        "bgg-basis-independence",
        "the six chain polynomials are linearly independent",
        cohomology.bgg_basis_independent(),
        anchor="basis property of the chain",
    )

    sq_ok = True
    for _ in range(30):
        p = ctx.ring.zero()
        for e1 in range(4):
            for e2 in range(4 - e1):
                p = p + Fraction(rng.randint(-3, 3)) * lam1**e1 * lam2**e2
        for k in (1, 2):
            dd = ctx.divided_difference(k, ctx.divided_difference(k, p))
            if dd != ctx.ring.zero():
                sq_ok = False
    rep.add_bool(
        "bgg-squares-zero",
        "divided-difference operators square to zero on 30 seeded polynomials",
        sq_ok,
        anchor="nilpotence of divided differences",
    )

    rows = cohomology.RestrictionTable().rows()
    u, _, w = rows["s1"]
    # falsified fixture: the true middle entry of the s1 row is b1 + b2
    falsified_rows = {**rows, "s1": (u, cohomology.B_RING.gens()[1], w)}
    rep.add_bool(
        "equivariant-relations",
        "all ten fixed-point substitutions reproduce the invariant "
        "symmetric polynomials",
        cohomology.verify_equivariant_relations(
            falsified_rows if corrupt else rows
        ).passed,
        anchor="fixed-point restriction relations",
    )

    rep.add_bool(
        "negative-control-table",
        "perturbed restriction-table entry is rejected by the substitution "
        "check",
        not cohomology.verify_equivariant_relations(falsified_rows).passed,
        anchor="negative control",
    )
    return rep


# ---------------------------------------------------------------------------
# gkm suite


def suite_gkm(
    seed: int = 0, degree_cutoff: int = 8, corrupt: bool = False
) -> VerificationReport:
    rep = VerificationReport("gkm", seed, degree_cutoff)
    rng = random.Random(seed)

    real = gkm.cached_realization()
    rep.add_bool(
        "euler-squares",
        "the three realized Euler products square to the displayed "
        "invariant squares",
        real.squares_match_display,
        anchor="Euler class squares",
    )
    rep.add_bool(
        "euler-coprime",
        "the three realized Euler products are pairwise coprime "
        "(no shared linear factor)",
        real.coprime,
        anchor="pairwise coprimality",
    )
    rep.add_bool(
        "euler-signs",
        "canonical lexicographic signs satisfy the additive relation "
        "c1 + c2 = c3; a signed vanishing combination exists",
        real.additivity_with_canonical_signs
        and real.vanishing_combination is not None,
        details=(
            f"canonical signs {real.canonical_signs}, vanishing combination "
            f"{real.vanishing_combination}"
        ),
        anchor="sign resolution of the label sum relation",
    )

    valences = [
        sum(1 for e in gkm.gkm_edges() if name in (e.u, e.v))
        for name in weyl.SIGMA3_NAMES
    ]
    graph_ok = len(gkm.gkm_edges()) == 9 and valences == [3] * 6
    rep.add_bool(
        "graph-shape",
        "moment graph has 6 vertices of valence 3 and 9 edges",
        graph_ok,
        anchor="graph of the six fixed points",
    )

    def perturbed(t: gkm.CohTuple) -> gkm.CohTuple:
        # falsified fixture: adds 1 to the entry at the identity vertex
        entries = dict(t.entries)
        entries["1"] = entries["1"] + cohomology.B_RING.one()
        return gkm.CohTuple("Hb", entries)

    n_member = 30
    member_ok = True
    for _ in range(n_member):
        t = gkm.random_membership_tuple(rng)
        if corrupt:
            t = perturbed(t)
        if not gkm.check_membership(t).ok:
            member_ok = False
    rep.add_bool(
        "membership-random",
        f"{n_member} seeded tuples built from restriction classes satisfy "
        "every edge condition",
        member_ok,
        anchor="membership of restriction-generated tuples",
    )

    class_ok = all(
        gkm.check_membership(gkm.restriction_class_tuple(k)).ok for k in (1, 2, 3)
    )
    rep.add_bool(
        "membership-classes",
        "the three basic restriction tuples are members",
        class_ok,
        anchor="membership of the Euler class tuples",
    )

    agree_ok = True
    for _ in range(30):
        t = gkm.random_arbitrary_tuple(rng)
        _, _, agree = gkm.p1_p2_equivalence(t)
        if not agree:
            agree_ok = False
    rep.add_bool(
        "p1-p2-equivalence",
        "inversion-restricted and full edge predicates agree on 30 seeded "
        "arbitrary tuples",
        agree_ok,
        anchor="equivalence of the two membership predicates",
    )

    rows = gkm.free_rank_check(degree_cutoff)
    rank_ok = all(computed == predicted for (_, computed, predicted) in rows)
    rep.add_bool(
        "free-rank",
        f"graded ranks match the free-module prediction for even degrees "
        f"<= {degree_cutoff}",
        rank_ok,
        details="; ".join(f"deg {d}: {c}/{p}" for (d, c, p) in rows),
        anchor="equivariant formality rank table",
    )

    rep.add_bool(
        "negative-control-membership",
        "tuple with one perturbed vertex entry is rejected",
        not gkm.check_membership(perturbed(gkm.restriction_class_tuple(1))).ok,
        anchor="negative control",
    )
    return rep


# ---------------------------------------------------------------------------
# ktheory suite


def suite_ktheory(
    seed: int = 0, degree_cutoff: int = 8, corrupt: bool = False
) -> VerificationReport:
    rep = VerificationReport("ktheory", seed, degree_cutoff)
    rng = random.Random(seed)

    rhs = ktheory.factorization_rhs()
    # falsified fixture: an extra monomial factor on the X1 - X2 side
    falsified_rhs = {**rhs, "X1-X2": rhs["X1-X2"] * ktheory.y(1)}
    facts = ktheory.verify_factorizations(falsified_rhs if corrupt else rhs)
    rep.add_bool(
        "X1-X2-factorization",
        "X1 - X2 equals the displayed shifted product of four binomials",
        facts.x1_minus_x2_ok,
        anchor="first difference factorization",
    )
    rep.add_bool(
        "X1-X3-factorization",
        "X1 - X3 equals the displayed product of four spin binomials",
        facts.x1_minus_x3_ok,
        anchor="second difference factorization",
    )
    rep.add_bool(
        "X3-X2-factorization",
        "X3 - X2 equals the displayed product of four binomials",
        facts.x3_minus_x2_ok,
        anchor="third difference factorization",
    )

    inv_ok = all(
        ktheory.weyl_act(w, ktheory.x_character(i)) == ktheory.x_character(i)
        for w in weyl.spin8_weyl()
        for i in (1, 2, 3, 4)
    )
    rep.add_bool(
        "weyl-invariance",
        "X1..X4 fixed by all 192 rank-4 Weyl elements",
        inv_ok,
        anchor="invariance of the basic characters",
    )

    perms = ktheory.x_action_permutations()
    perm_names = {k: v.name for k, v in perms.items()}
    perm_set_ok = {v.name for v in perms.values()} == {"s1", "s2", "s1s2s1"}
    rep.add_bool(
        "x-permutation-action",
        "the three distinguished reflections realize the three "
        "transpositions of {X1, X2, X3}",
        perm_set_ok and perms["omega4"].name == "s2",
        details=f"computed assignment {perm_names}",
        anchor="permutation action on the basic characters",
    )

    rep.add_bool(
        "adjoint-display-gap",
        "the 24-term display differs from the full adjoint character by "
        "exactly the 4 zero weights",
        ktheory.x4_display_discrepancy() == 4,
        details="display stored verbatim; adjoint = display + 4",
        anchor="zero-weight gap of the adjoint display",
    )

    roundtrip_ok = True
    for _ in range(15):
        exps = [0, 0, 0, 0]
        for _ in range(rng.randint(0, 3)):
            exps[rng.randint(0, 3)] += 1
        p = ktheory.X_RING.monomial(exps, rng.randint(1, 3))
        if ktheory.to_x_polynomial(ktheory.expand_x_polynomial(p)) != p:
            roundtrip_ok = False
    noninv = ktheory.to_x_polynomial(
        ktheory.y(1) + ktheory.Character.monomial(-weyl.omega(1))
    )
    rep.add_bool(
        "x-roundtrip",
        "to-polynomial after expansion is the identity on 15 seeded "
        "monomials; non-invariant input reports not-invariant",
        roundtrip_ok and noninv is None,
        anchor="polynomial/character round trip",
    )

    eq = ktheory.equivalence_spotcheck(20, seed)
    rep.add_bool(
        "rt-rx-agreement",
        "character-ring and polynomial-ring divisibility agree on 20 seeded "
        "positives and 20 negatives",
        eq.passed,
        details=(
            f"forward {eq.forward_agreements}/{eq.trials}, "
            f"negative {eq.negative_agreements}/{eq.trials}"
        ),
        anchor="equivalence of the two divisibility styles",
    )

    taut = ktheory.tautological_tuple()
    taut_x = ktheory.check_k_membership_x(taut.entries)
    taut_rt = ktheory.check_k_membership_rt(
        {n: ktheory.expand_x_polynomial(p) for n, p in taut.entries.items()}
    )
    rep.add_bool(
        "tautological-membership",
        "the tautological tuple passes both membership styles",
        taut_x.ok and taut_rt.ok,
        anchor="tautological class membership",
    )

    bin_ok = True
    for _ in range(20):
        h = ktheory.random_x_polynomial(rng)
        f = ktheory.expand_x_polynomial(h)
        w = weyl.L(rng.randint(1, 4))
        direct = ktheory.divides_char(ktheory.binomial(w), f)
        proj = ktheory.binomial_divides(w, f)
        if direct != proj:
            bin_ok = False
    rep.add_bool(
        "binomial-division-agreement",
        "exact division and coset projection agree for single binomial "
        "divisors on 20 seeded characters",
        bin_ok,
        anchor="two implementations of binomial divisibility",
    )

    rep.add_bool(
        "negative-control-factorization",
        "falsified factorization (extra monomial factor) is rejected",
        not ktheory.verify_factorizations(falsified_rhs).x1_minus_x2_ok,
        anchor="negative control",
    )
    return rep


# ---------------------------------------------------------------------------
# orchestration


SUITES: Dict[str, Callable[..., VerificationReport]] = {
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
    """Run one named suite (or 'all'); checks are sorted by id in the output."""
    start = time.monotonic()
    if name == "all":
        rep = VerificationReport("all", seed, degree_cutoff)
        for sub in SUITE_NAMES:
            sub_rep = SUITES[sub](seed, degree_cutoff, corrupt)
            for check in sub_rep.checks:
                rep.add(dataclasses.replace(check, id=f"{sub}.{check.id}"))
    elif name in SUITES:
        rep = SUITES[name](seed, degree_cutoff, corrupt)
    else:
        raise KeyError(name)
    rep.runtime_ms = int((time.monotonic() - start) * 1000)
    return rep
