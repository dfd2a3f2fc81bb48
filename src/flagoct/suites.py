"""Verification suites: every checkable statement of the package, declared.

A suite function ``suite_<name>(seed, degree_cutoff, corrupt)`` sets up its
seeded fixtures and hands a list of declarations to :func:`run_checks`,
which returns one :class:`~flagoct.report.Check` per declaration.  A
declaration is ``(id, description, anchor, thunk)``.  The thunk takes no
argument and returns ``ok`` or ``(ok, details)``.

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

:func:`run_suite` builds the report of one suite, or of ``all`` with each
id prefixed by ``<suite>.``, and records its runtime.
"""

from __future__ import annotations

import functools
import operator
import random
import time
from fractions import Fraction
from typing import Callable, Dict, List, Tuple, Union

from . import cohomology, gkm, jordan, ktheory, octonion, weyl
from .poly import PolyRing, Polynomial
from .report import Check, VerificationReport

Outcome = Union[bool, Tuple[bool, str]]
Declaration = Tuple[str, str, str, Callable[[], Outcome]]

# ---------------------------------------------------------------------------
# octonion suite


def suite_octonion(
    seed: int = 0, degree_cutoff: int = 8, corrupt: bool = False
) -> List[Check]:
    rng = random.Random(seed)
    Octonion = octonion.Octonion
    pairs = [(Octonion.random(rng), Octonion.random(rng)) for _ in range(100)]

    def corrupted_product(x, y):
        # falsified fixture: drops the sign flip in the second component
        return (x * y) + Octonion.unit(2).scale(Fraction(1, 7))

    def composes(product, sample) -> bool:
        return all(
            product(x, y).norm_squared() == x.norm_squared() * y.norm_squared()
            for (x, y) in sample
        )

    def witness() -> bool:
        a, b, c, assoc = octonion.associativity_witness()
        return (
            not assoc.is_zero()
            and assoc == Octonion.unit(8).scale(2)
            and (a * b) * c == -(a * (b * c))
        )

    def table() -> bool:
        t = octonion.multiplication_table()
        return (
            all(t[0][j] == (1, j + 1) and t[j][0] == (1, j + 1) for j in range(8))
            and all(t[i][i] == (-1, 1) for i in range(1, 8))
            and all(
                t[i][j][1] != 1 and t[i][j][0] in (1, -1)
                for i in range(1, 8)
                for j in range(1, 8)
                if i != j
            )
        )

    return run_checks([
        ("composition-law", "N(xy) = N(x) N(y) on 100 seeded pairs",
         "multiplicativity of the octonion norm",
         lambda: composes(corrupted_product if corrupt else operator.mul, pairs)),
        ("alternativity", "x(xy) = (xx)y and (yx)x = y(xx) on 100 seeded pairs",
         "alternativity of the octonion product",
         lambda: all(
             x * (x * y) == (x * x) * y and (y * x) * x == y * (x * x)
             for (x, y) in pairs
         )),
        ("conjugation-norm", "x conj(x) = N(x) on 100 seeded elements",
         "norm via conjugation",
         lambda: all(
             (x * x.conjugate()).is_real()
             and (x * x.conjugate()).real_part() == x.norm_squared()
             for (x, _) in pairs
         )),
        ("nonassociativity-witness", "(e2 e3) e5 = -e2 (e3 e5), associator 2 e8",
         "stored non-associativity witness", witness),
        ("multiplication-table", "unit row/column, squares -1, signed-unit products",
         "basis multiplication table structure", table),
        ("negative-control-composition",
         "falsified product is rejected by the composition-law check",
         "negative control", lambda: not composes(corrupted_product, pairs[:10])),
    ])


# ---------------------------------------------------------------------------
# jordan suite


def suite_jordan(
    seed: int = 0, degree_cutoff: int = 8, corrupt: bool = False
) -> List[Check]:
    rng = random.Random(seed)
    J = jordan.JordanMatrix
    test_diagonals = [
        J.diagonal(Fraction(1), Fraction(2), Fraction(-3)),
        J.diagonal(Fraction(0), Fraction(1), Fraction(-1)),
        J.diagonal(Fraction(3), Fraction(-1), Fraction(-2)),
    ]
    falsified_det = Fraction(31)  # falsified fixture: det Diag(2,3,5) is 30

    @functools.cache
    def numeric_det() -> Fraction:
        return jordan.jordan_determinant(J.diagonal(Fraction(2), Fraction(3), Fraction(5)))

    def root_spaces() -> bool:
        return all(
            jordan.root_space_check(x, J.slot_unit(jordan.slot_of_root(k), i), k)
            for x in test_diagonals
            for k in (1, 2, 3)
            for i in range(1, 9)
        )

    def brackets() -> bool:
        samples = []
        for _ in range(50):
            v1 = Fraction(rng.randint(-4, 4))
            v2 = Fraction(rng.randint(-4, 4))
            a = J.random_traceless(rng)
            if rng.random() < 0.3:
                a = a + J.identity().scale(rng.randint(1, 3))
            samples.append((J.diagonal(v1, v2, -(v1 + v2)), a))
        # s = m - m* has an imaginary diagonal, so these pairs read the tilde
        # images of the diagonal skew basis, which s = [x, a] never does;
        # they come from their own generator and leave the draws above as
        # they were
        own = random.Random(seed)
        skew_pairs = []
        for _ in range(6):
            m = [[octonion.Octonion.random(own, 3) for _ in range(3)] for _ in range(3)]
            m_star = [[m[j][i].conjugate() for j in range(3)] for i in range(3)]
            s = jordan.OctMatrix3(m) - jordan.OctMatrix3(m_star)
            skew_pairs.append((s, J.random_traceless(own)))
        return all(all(jordan.bracket_lemma_parts(x, a)) for (x, a) in samples) and all(
            jordan.tilde_operator(s).apply(y) == J.from_matrix(s.commutator(y.to_matrix()))
            for s, y in skew_pairs
        )

    def diagonal_determinant() -> bool:
        # symbolic via Newton's identity, plus a numeric spot
        x1, x2, x3 = PolyRing.make(("x1", "x2", "x3"), (1, 1, 1)).gens()
        p1 = x1 + x2 + x3
        p2 = x1**2 + x2**2 + x3**2
        p3 = x1**3 + x2**3 + x3**3
        symbolic = (
            Fraction(1, 3) * p3 - Fraction(1, 2) * p2 * p1 + Fraction(1, 6) * p1**3
        )
        expected = falsified_det if corrupt else Fraction(30)
        return symbolic == x1 * x2 * x3 and numeric_det() == expected

    def random_determinants() -> bool:
        triples = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
            for _ in range(20)
        ]
        return all(
            jordan.jordan_determinant(J.diagonal(*v)) == v[0] * v[1] * v[2]
            for v in triples
        )

    def projective_points() -> bool:
        points = [J.diag_unit(k) for k in (1, 2, 3)]
        return all(jordan.is_projective_point(p) for p in points) and all(
            jordan.is_incident(points[i], points[j])
            for i in range(3)
            for j in range(3)
            if i != j
        )

    def format_roundtrip() -> bool:
        samples = [J.random_traceless(rng) for _ in range(10)]
        return all(jordan.parse_jordan(jordan.format_jordan(a)) == a for a in samples)

    return run_checks([
        ("root-space-identity",
         "[x,[x,a]] = gamma_k(x)^2 a on all 24 off-diagonal basis vectors, "
         "3 diagonal test vectors",
         "double-bracket eigenvalue identity", root_spaces),
        ("operator-eigenvalue",
         "hat-operator squares act by (gamma_k/2)^2 on each root slot",
         "operator eigenvalue on root spaces",
         lambda: all(
             jordan.operator_eigenvalue_check(x, k)
             for x in test_diagonals
             for k in (1, 2, 3)
         )),
        ("bracket-identities",
         "both commutator-operator identities on 50 seeded pairs "
         "(27x27 matrix equalities), tilde(s) y = sy - ys on 6 seeded "
         "skew s with imaginary diagonal",
         "commutator bracket identities", brackets),
        ("diagonal-determinant",
         "det Diag(x1,x2,x3) = x1 x2 x3 symbolically and on rational spots",
         "determinant of diagonal elements", diagonal_determinant),
        ("determinant-random-diagonal",
         "det Diag(a,b,c) = abc on 20 seeded rational triples",
         "determinant of diagonal elements", random_determinants),
        ("projective-points",
         "diagonal idempotents are pairwise incident projective points",
         "projective points and incidence", projective_points),
        ("format-roundtrip", "parse(format(a)) = a on 10 seeded elements",
         "text round trip", format_roundtrip),
        ("negative-control-determinant",
         "falsified determinant value 31 for Diag(2,3,5) is rejected",
         "negative control", lambda: numeric_det() != falsified_det),
    ])


# ---------------------------------------------------------------------------
# roots suite


def suite_roots(
    seed: int = 0, degree_cutoff: int = 8, corrupt: bool = False
) -> List[Check]:
    semidirect = functools.cache(weyl.semidirect_report)
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

    @functools.cache
    def inversions() -> Dict[str, frozenset]:
        return {
            name: weyl.inversion_set(weyl.sigma3_by_name(name))
            for name in weyl.SIGMA3_NAMES
        }

    def order(group: Callable[[], frozenset], expected: int) -> Outcome:
        size = len(group())
        return size == expected, f"got {size}"

    def complement() -> Outcome:
        sd = semidirect()
        return (
            sd.complement_order == 6 and sd.intersection_trivial and sd.orders_multiply,
            f"complement order {sd.complement_order}, "
            f"intersection trivial: {sd.intersection_trivial}, "
            f"orders multiply: {sd.orders_multiply}",
        )

    def braid() -> bool:
        gens = weyl.sigma_tilde_generators()
        rhs = gens["omega4"] * gens["omega5_minus_omega4"]
        if not corrupt:
            rhs = rhs * gens["omega4"]
        return gens["omega5"] == rhs

    def partition() -> Outcome:
        sizes = {k: len(v) for k, v in weyl.coset_partition_of_f4_positives().items()}
        ok = all(sizes.get(k) == 4 for k in ("omega4", "omega5_minus_omega4", "omega5"))
        return ok, f"sizes {sizes}"

    def cell_polynomial() -> Outcome:
        cells = weyl.cell_dimension_polynomial()
        return cells == {0: 1, 8: 2, 16: 2, 24: 1}, f"got {cells}"

    def identification() -> bool:
        ident = weyl.sigma3_identification()
        return ident["omega4"].name == "s2" and {
            e.name for e in ident.values()
        } == {"s1", "s2", "s1s2s1"}

    return run_checks([
        ("weyl-order-spin8", "|W(Spin 8)| = 192", "rank-4 even signed permutations",
         lambda: order(weyl.spin8_weyl, 192)),
        ("weyl-order-f4", "|W(F4)| = 1152", "full reflection group order",
         lambda: order(weyl.f4_weyl, 1152)),
        ("normality",
         "the rank-4 group is normal in the big group "
         "(generator conjugation closure)",
         "normal subgroup verification", lambda: semidirect().normal),
        ("complement-subgroup",
         "the three distinguished reflections generate an order-6 complement "
         "meeting the normal subgroup trivially",
         "semidirect decomposition", complement),
        ("braid-identity",
         "the third distinguished reflection equals the palindromic word in "
         "the other two",
         "reflection braid relation", braid),
        ("root-partition", "the 12 extra positive roots split 4+4+4 by coset",
         "4+4+4 partition of short positive roots", partition),
        ("inversion-table",
         "inversion sets match the fixed six-row table entry-for-entry",
         "inversion sets of the six elements",
         lambda: inversions()
         == (falsified_inversions if corrupt else expected_inversions)),
        ("cell-polynomial",
         "cell-dimension generating polynomial is 1 + 2 t^8 + 2 t^16 + t^24",
         "Poincare polynomial of the six cells", cell_polynomial),
        ("complement-identification",
         "the three reflections map to the three transpositions of the "
         "abstract symmetric group",
         "complement as symmetric group on three letters", identification),
        ("negative-control-inversions", "falsified inversion table is rejected",
         "negative control", lambda: inversions() != falsified_inversions),
    ])


# ---------------------------------------------------------------------------
# cohomology suite


def suite_cohomology(
    seed: int = 0, degree_cutoff: int = 8, corrupt: bool = False
) -> List[Check]:
    rng = random.Random(seed)
    presentation = functools.cache(cohomology.verify_presentation)
    context = functools.cache(cohomology.BggContext)

    @functools.cache
    def rows():
        return cohomology.RestrictionTable().rows()

    def falsified_rows():
        # falsified fixture: the true middle entry of the s1 row is b1 + b2
        u, _, w = rows()["s1"]
        return {**rows(), "s1": (u, cohomology.B_RING.gens()[1], w)}

    def relations_hold(table) -> bool:
        return cohomology.verify_equivariant_relations(table).passed

    def identities() -> bool:
        pres = presentation()
        return (
            pres.beta_relation_ok
            and pres.dual_of_beta1_ok
            and pres.dual_of_beta2_ok
            and pres.ideals_coincide
        )

    def pairing() -> Outcome:
        pres = presentation()
        return (
            pres.cross_duality_pairing and pres.same_index_products_vanish,
            "literally-stated same-index pairing holds: "
            f"{pres.stated_duality_pairing} (known discrepancy; the "
            "cross-index pairing is the one realized by the computation)",
        )

    def frac_identity() -> Outcome:
        frac = cohomology.verify_frac_identity()
        return (
            frac.passed,
            f"stated same-index form in ideal: {frac.stated_form_in_ideal}; "
            f"cross forms in ideal: {frac.cross_form_lam1_in_ideal}, "
            f"{frac.cross_form_lam2_in_ideal}",
        )

    def chain() -> bool:
        ctx = context()
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
        return all(basis[k] == expected[k] for k in expected)

    def squares_zero() -> bool:
        ctx = context()
        lam1, lam2 = ctx.lam
        samples = []
        for _ in range(30):
            p = ctx.ring.zero()
            for e1 in range(4):
                for e2 in range(4 - e1):
                    p = p + Fraction(rng.randint(-3, 3)) * lam1**e1 * lam2**e2
            samples.append(p)
        return all(
            ctx.divided_difference(k, ctx.divided_difference(k, p)) == ctx.ring.zero()
            for p in samples
            for k in (1, 2)
        )

    return run_checks([
        ("graded-dimensions",
         "quotient dimensions (1,2,2,1) in degrees 0,8,16,24; total 6",
         "Euler characteristic 6",
         lambda: (presentation().dimensions_ok,
                  f"got {presentation().graded_dimensions}")),
        ("presentation-identities",
         "beta relation, duality squares, and ideal coincidence",
         "degree-8 presentation identities", identities),
        ("duality-pairing-form",
         "cross-index duality products equal the top class; same-index "
         "products vanish in the quotient",
         "duality pairing of degree-8 classes", pairing),
        ("frac-identity",
         "degree-2 times degree-4 classes represent the top class modulo the "
         "invariant ideal (cross pairing)",
         "sixth-of-product representation of the point class", frac_identity),
        ("bgg-chain",
         "divided differences of the top class reproduce the five basis "
         "polynomials plus 1",
         "divided-difference basis chain", chain),
        ("bgg-basis-independence",
         "the six chain polynomials are linearly independent",
         "basis property of the chain", cohomology.bgg_basis_independent),
        ("bgg-squares-zero",
         "divided-difference operators square to zero on 30 seeded polynomials",
         "nilpotence of divided differences", squares_zero),
        ("equivariant-relations",
         "all ten fixed-point substitutions reproduce the invariant "
         "symmetric polynomials",
         "fixed-point restriction relations",
         lambda: relations_hold(falsified_rows() if corrupt else rows())),
        ("negative-control-table",
         "perturbed restriction-table entry is rejected by the substitution "
         "check",
         "negative control", lambda: not relations_hold(falsified_rows())),
    ])


# ---------------------------------------------------------------------------
# gkm suite


def suite_gkm(
    seed: int = 0, degree_cutoff: int = 8, corrupt: bool = False
) -> List[Check]:
    rng = random.Random(seed)
    real = gkm.cached_realization

    def perturbed(t: Dict[str, Polynomial]) -> Dict[str, Polynomial]:
        # falsified fixture: adds 1 to the entry at the identity vertex
        return {**t, "1": t["1"] + cohomology.B_RING.one()}

    def signs() -> Outcome:
        r = real()
        return (
            r.additivity_with_canonical_signs and r.vanishing_combination is not None,
            f"canonical signs {r.canonical_signs}, vanishing combination "
            f"{r.vanishing_combination}",
        )

    def graph_shape() -> bool:
        edges = gkm.gkm_edges()
        valences = [
            sum(1 for e in edges if name in (e.u, e.v)) for name in weyl.SIGMA3_NAMES
        ]
        return len(edges) == 9 and valences == [3] * 6

    def random_members() -> bool:
        tuples = [gkm.random_membership_tuple(rng) for _ in range(30)]
        return all(
            gkm.check_membership(perturbed(t) if corrupt else t).ok for t in tuples
        )

    def predicates_agree() -> bool:
        tuples = [gkm.random_arbitrary_tuple(rng) for _ in range(30)]
        return all(gkm.p1_p2_equivalence(t)[2] for t in tuples)

    def free_rank() -> Outcome:
        rows = gkm.free_rank_check(degree_cutoff)
        return (
            all(computed == predicted for (_, computed, predicted) in rows),
            "; ".join(f"deg {d}: {c}/{p}" for (d, c, p) in rows),
        )

    return run_checks([
        ("euler-squares",
         "the three realized Euler products square to the displayed "
         "invariant squares",
         "Euler class squares", lambda: real().squares_match_display),
        ("euler-coprime",
         "the three realized Euler products are pairwise coprime "
         "(no shared linear factor)",
         "pairwise coprimality", lambda: real().coprime),
        ("euler-signs",
         "canonical lexicographic signs satisfy the additive relation "
         "c1 + c2 = c3; a signed vanishing combination exists",
         "sign resolution of the label sum relation", signs),
        ("graph-shape", "moment graph has 6 vertices of valence 3 and 9 edges",
         "graph of the six fixed points", graph_shape),
        ("membership-random",
         "30 seeded tuples built from restriction classes satisfy every edge "
         "condition",
         "membership of restriction-generated tuples", random_members),
        ("membership-classes", "the three basic restriction tuples are members",
         "membership of the Euler class tuples",
         lambda: all(
             gkm.check_membership(gkm.restriction_class_tuple(k)).ok
             for k in (1, 2, 3)
         )),
        ("p1-p2-equivalence",
         "inversion-restricted and full edge predicates agree on 30 seeded "
         "arbitrary tuples",
         "equivalence of the two membership predicates", predicates_agree),
        ("free-rank",
         f"graded ranks match the free-module prediction for even degrees "
         f"<= {degree_cutoff}",
         "equivariant formality rank table", free_rank),
        ("negative-control-membership",
         "tuple with one perturbed vertex entry is rejected",
         "negative control",
         lambda: not gkm.check_membership(perturbed(gkm.restriction_class_tuple(1))).ok),
    ])


# ---------------------------------------------------------------------------
# ktheory suite


def suite_ktheory(
    seed: int = 0, degree_cutoff: int = 8, corrupt: bool = False
) -> List[Check]:
    rng = random.Random(seed)
    rhs = functools.cache(ktheory.factorization_rhs)

    @functools.cache
    def falsified_rhs():
        # falsified fixture: an extra monomial factor on the X1 - X2 side
        return {**rhs(), "X1-X2": rhs()["X1-X2"] * ktheory.y(1)}

    @functools.cache
    def facts():
        return ktheory.verify_factorizations(falsified_rhs() if corrupt else rhs())

    def invariance() -> bool:
        return all(
            ktheory.weyl_act(w, ktheory.x_character(i)) == ktheory.x_character(i)
            for w in weyl.spin8_weyl()
            for i in (1, 2, 3, 4)
        )

    def permutations() -> Outcome:
        perms = ktheory.x_action_permutations()
        names = {k: v.name for k, v in perms.items()}
        ok = set(names.values()) == {"s1", "s2", "s1s2s1"} and names["omega4"] == "s2"
        return ok, f"computed assignment {names}"

    def roundtrip() -> bool:
        samples = []
        for _ in range(15):
            exps = [0, 0, 0, 0]
            for _ in range(rng.randint(0, 3)):
                exps[rng.randint(0, 3)] += 1
            samples.append(ktheory.X_RING.monomial(exps, rng.randint(1, 3)))
        noninv = ktheory.to_x_polynomial(
            ktheory.y(1) + ktheory.Character.monomial(-weyl.omega(1))
        )
        return noninv is None and all(
            ktheory.to_x_polynomial(ktheory.expand_x_polynomial(p)) == p
            for p in samples
        )

    def agreement() -> Outcome:
        eq = ktheory.equivalence_spotcheck(20, seed)
        return (
            eq.passed,
            f"forward {eq.forward_agreements}/{eq.trials}, "
            f"negative {eq.negative_agreements}/{eq.trials}",
        )

    def tautological() -> bool:
        taut = ktheory.tautological_tuple()
        expanded = {n: ktheory.expand_x_polynomial(p) for n, p in taut.items()}
        return gkm.check_membership(taut).ok and gkm.check_membership(expanded).ok

    def binomials() -> bool:
        samples = [
            (ktheory.expand_x_polynomial(ktheory.random_x_polynomial(rng)),
             weyl.L(rng.randint(1, 4)))
            for _ in range(20)
        ]
        return all(
            ktheory.divides_char(ktheory.binomial(w), f) == ktheory.binomial_divides(w, f)
            for (f, w) in samples
        )

    return run_checks([
        ("X1-X2-factorization",
         "X1 - X2 equals the displayed shifted product of four binomials",
         "first difference factorization", lambda: facts().x1_minus_x2_ok),
        ("X1-X3-factorization",
         "X1 - X3 equals the displayed product of four spin binomials",
         "second difference factorization", lambda: facts().x1_minus_x3_ok),
        ("X3-X2-factorization",
         "X3 - X2 equals the displayed product of four binomials",
         "third difference factorization", lambda: facts().x3_minus_x2_ok),
        ("weyl-invariance", "X1..X4 fixed by all 192 rank-4 Weyl elements",
         "invariance of the basic characters", invariance),
        ("x-permutation-action",
         "the three distinguished reflections realize the three "
         "transpositions of {X1, X2, X3}",
         "permutation action on the basic characters", permutations),
        ("adjoint-display-gap",
         "the 24-term display differs from the full adjoint character by "
         "exactly the 4 zero weights",
         "zero-weight gap of the adjoint display",
         lambda: (ktheory.x4_display_discrepancy() == 4,
                  "display stored verbatim; adjoint = display + 4")),
        ("x-roundtrip",
         "to-polynomial after expansion is the identity on 15 seeded "
         "monomials; non-invariant input reports not-invariant",
         "polynomial/character round trip", roundtrip),
        ("rt-rx-agreement",
         "character-ring and polynomial-ring divisibility agree on 20 seeded "
         "positives and 20 negatives",
         "equivalence of the two divisibility styles", agreement),
        ("tautological-membership",
         "the tautological tuple passes both membership styles",
         "tautological class membership", tautological),
        ("binomial-division-agreement",
         "exact division and coset projection agree for single binomial "
         "divisors on 20 seeded characters",
         "two implementations of binomial divisibility", binomials),
        ("negative-control-factorization",
         "falsified factorization (extra monomial factor) is rejected",
         "negative control",
         lambda: not ktheory.verify_factorizations(falsified_rhs()).x1_minus_x2_ok),
    ])


# ---------------------------------------------------------------------------
# orchestration


SUITES: Dict[str, Callable[..., List[Check]]] = {
    "octonion": suite_octonion,
    "jordan": suite_jordan,
    "roots": suite_roots,
    "cohomology": suite_cohomology,
    "gkm": suite_gkm,
    "ktheory": suite_ktheory,
}
SUITE_NAMES = tuple(SUITES)


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
