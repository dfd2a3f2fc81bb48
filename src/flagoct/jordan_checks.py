"""The checks of the jordan suite: root spaces, bracket identities,
determinants and projective points of the Jordan algebra.

See :mod:`flagoct.suites` for what a declaration is and how it runs.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from typing import List

from . import jordan, octonion
from .poly import PolyRing
from .report import Declaration


def declarations(seed: int, degree_cutoff: int, corrupt: bool) -> List[Declaration]:
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

    return [
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
    ]
