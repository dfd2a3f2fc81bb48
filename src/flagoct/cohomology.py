"""Cohomology presentations for the octonionic flag manifold.

Three exact-polynomial models:

* the degree-8 Euler-class presentation Q[x1,x2]/(g2,g3) with
  g_i = S_i(2x1+x2, -x1+x2, -x1-2x2), together with the beta change of basis
  beta1 = (2x1+x2)/3, beta2 = (x1+2x2)/3 and the Poincare-pairing identities;
* the rank-two divided-difference model Q[lam1,lam2] (degree-2 generators,
  the full flag variety of C^3) with its Weyl action, the operators
  D_k f = (f - s_k f)/gamma_k, and membership tests modulo the ideal of
  nonconstant symmetric polynomials in (lam1, lam2-lam1, -lam2);
* the fixed-point restriction table over Q[b1,b2] with the equivariant
  symmetric-function relations it satisfies.

Numbered degree conventions: x's and b's sit in degree 8, lam's in degree 2.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

# groebner is read as an attribute inside the presentation checks, so that
# the restriction table and the integer rank compile without it
from . import groebner
from .poly import PolyRing, Polynomial, elementary_symmetric, exact_divide
from .scaled import numerators
from .weyl import SIGMA3_NAMES, Sigma3Element, sigma3_by_name

E_RING = PolyRing.make(("x1", "x2"), (8, 8))
BETA_RING = PolyRing.make(("beta1", "beta2"), (8, 8))
B_RING = PolyRing.make(("b1", "b2"), (8, 8))
LAMBDA_RING = PolyRing.make(("lam1", "lam2"), (2, 2))


def bundle_relations(u: Polynomial, v: Polynomial) -> Tuple[Polynomial, Polynomial]:
    """S_2 and S_3 of (2u+v, -u+v, -u-2v), the weights of the three rank-8
    bundles in terms of the first two Euler classes u, v."""
    args = (2 * u + v, -u + v, -(u + 2 * v))
    return elementary_symmetric(2, *args), elementary_symmetric(3, *args)


def a2_relations(a: Polynomial, b: Polynomial) -> Tuple[Polynomial, Polynomial]:
    """S_2 and S_3 of the A2 triple (a, b - a, -b)."""
    args = (a, b - a, -b)
    return elementary_symmetric(2, *args), elementary_symmetric(3, *args)


def coinvariant_generators(ring: PolyRing) -> Tuple[Polynomial, Polynomial]:
    """The relation generators :func:`bundle_relations` of the ring's two
    generators; they cut out a 6-dimensional graded quotient."""
    return bundle_relations(*ring.gens())


def e_to_beta(f: Polynomial) -> Polynomial:
    """Rewrite a polynomial in the x's as a polynomial in the betas."""
    beta1, beta2 = BETA_RING.gens()
    return f.substitute({"x1": 2 * beta1 - beta2, "x2": -beta1 + 2 * beta2})


def beta_to_e(f: Polynomial) -> Polynomial:
    x1, x2 = E_RING.gens()
    return f.substitute(
        {
            "beta1": (2 * x1 + x2) * Fraction(1, 3),
            "beta2": (x1 + 2 * x2) * Fraction(1, 3),
        }
    )


class PresentationReport(NamedTuple):
    """Outcome of the ordinary-cohomology presentation checks.

    ``stated_duality_pairing`` records the same-index pairing
    beta1 * (x1(x1+x2)/3) = top class as stated in the source material for
    this geometry; exact computation shows that product is zero in the
    quotient (the cube of a degree-8 generator vanishes), while the
    cross-index pairing beta1 * (x2(x1+x2)/3) does give the top class.  The
    report carries both verdicts; ``passed`` uses the computed-correct
    pairing.
    """

    beta_relation_ok: bool
    dual_of_beta1_ok: bool
    dual_of_beta2_ok: bool
    stated_duality_pairing: bool
    cross_duality_pairing: bool
    same_index_products_vanish: bool
    graded_dimensions: Tuple[int, ...]
    dimensions_ok: bool
    ideals_coincide: bool

    @property
    def passed(self) -> bool:
        return (
            self.beta_relation_ok
            and self.dual_of_beta1_ok
            and self.dual_of_beta2_ok
            and self.cross_duality_pairing
            and self.same_index_products_vanish
            and self.dimensions_ok
            and self.ideals_coincide
        )


def verify_presentation() -> PresentationReport:
    gb = groebner.buchberger(coinvariant_generators(E_RING))
    x1, x2 = E_RING.gens()
    third = Fraction(1, 3)
    # candidate Poincare duals and the top class, all in x-coordinates
    dual1 = third * x1 * (x1 + x2)
    dual2 = third * x2 * (x1 + x2)
    top = Fraction(1, 6) * x1 * x2 * (x1 + x2)
    beta1_x, beta2_x = map(beta_to_e, BETA_RING.gens())

    beta_rel = gb.contains(
        beta1_x * beta1_x + beta2_x * beta2_x - beta1_x * beta2_x
    )
    dual1_ok = gb.contains(dual1 - beta1_x * beta1_x)
    dual2_ok = gb.contains(dual2 - beta2_x * beta2_x)
    stated = gb.contains(beta1_x * dual1 - top)
    cross = gb.contains(beta1_x * dual2 - top) and gb.contains(
        beta2_x * dual1 - top
    )
    same_zero = gb.contains(beta1_x * dual1) and gb.contains(beta2_x * dual2)

    dims_map = groebner.graded_quotient_dimensions(gb, 24)
    dims = (dims_map[0], dims_map[8], dims_map[16], dims_map[24])
    dims_ok = dims == (1, 2, 2, 1) and sum(dims_map.values()) == 6

    # the relation ideals agree under the linear change of variables: the
    # three bundle weights become 3*(beta1, beta2-beta1, -beta2), so each
    # generator maps to 3^i times the corresponding symmetric polynomial
    # (whose quadratic member is minus the displayed beta relation)
    g2e, g3e = coinvariant_generators(E_RING)
    beta1, beta2 = BETA_RING.gens()
    g2b, g3b = a2_relations(beta1, beta2)
    ideals_ok = e_to_beta(g2e) == 9 * g2b and e_to_beta(g3e) == 27 * g3b
    ideals_ok = ideals_ok and g2b == -(
        beta1 * beta1 + beta2 * beta2 - beta1 * beta2
    )
    gb_beta = groebner.buchberger((g2b, g3b))
    ideals_ok = ideals_ok and all(
        gb_beta.contains(e_to_beta(g)) for g in gb.elements
    )

    return PresentationReport(
        beta_relation_ok=beta_rel,
        dual_of_beta1_ok=dual1_ok,
        dual_of_beta2_ok=dual2_ok,
        stated_duality_pairing=stated,
        cross_duality_pairing=cross,
        same_index_products_vanish=same_zero,
        graded_dimensions=dims,
        dimensions_ok=dims_ok,
        ideals_coincide=ideals_ok,
    )


# -- divided differences in the rank-two model ---------------------------------


class BggContext:
    """Q[lam1, lam2] with the rank-two Weyl action and divided differences.

    Roots: gamma1 = 2 lam1 - lam2, gamma2 = 2 lam2 - lam1 and their sum
    gamma3 = lam1 + lam2.  The simple reflections act by
    s_k(lam_j) = lam_j - delta_{kj} gamma_k.
    """

    def __init__(self) -> None:
        self.ring = LAMBDA_RING
        lam1, lam2 = self.ring.gens()
        self.lam = (lam1, lam2)
        self.gamma = {
            1: 2 * lam1 - lam2,
            2: 2 * lam2 - lam1,
            3: lam1 + lam2,
        }

    def weyl_action(self, k: int, f: Polynomial) -> Polynomial:
        """Apply the simple reflection s_k (k = 1 or 2) to f."""
        if k not in (1, 2):
            raise ValueError("simple reflection index must be 1 or 2")
        lam1, lam2 = self.lam
        images = {"lam1": lam1, "lam2": lam2}
        images[f"lam{k}"] = self.lam[k - 1] - self.gamma[k]
        return f.substitute(images)

    def divided_difference(self, k: int, f: Polynomial) -> Polynomial:
        """D_k f = (f - s_k f)/gamma_k; the division is always exact."""
        diff = f - self.weyl_action(k, f)
        q = exact_divide(diff, self.gamma[k])
        if q is None:
            raise AssertionError(
                "divided difference failed to divide exactly; "
                "this indicates a defect in the Weyl action"
            )
        return q

    def symmetric_ideal_basis(self) -> groebner.GroebnerBasis:
        """Ideal of nonconstant symmetric polynomials in
        (lam1, lam2-lam1, -lam2)."""
        return groebner.buchberger(a2_relations(*self.lam))

    def top_class(self) -> Polynomial:
        return Fraction(1, 6) * self.gamma[1] * self.gamma[2] * self.gamma[3]

    def bgg_basis(self) -> Dict[str, Polynomial]:
        """Schubert-type basis obtained from the top class by the D_k chain."""
        top = self.top_class()
        d1 = self.divided_difference(1, top)
        d2 = self.divided_difference(2, top)
        lam1 = self.divided_difference(2, d1)
        lam2 = self.divided_difference(1, d2)
        one = self.divided_difference(1, lam1)
        return {
            "top": top,
            "codim1_a": d1,
            "codim1_b": d2,
            "deg1_a": lam1,
            "deg1_b": lam2,
            "unit": one,
        }


class FracIdentityReport(NamedTuple):
    """Pairing of degree-2 classes against degree-4 classes modulo the ideal.

    ``stated_form_in_ideal`` is the same-index pairing
    lam1 * (gamma1 gamma3 / 3) - top; exact computation shows it is NOT in
    the ideal (the same-index product reduces to zero, not to the top class),
    while both cross pairings are.  ``passed`` asserts the computed-correct
    cross pairings together with the control memberships.
    """

    stated_form_in_ideal: bool
    cross_form_lam1_in_ideal: bool
    cross_form_lam2_in_ideal: bool
    same_index_products_vanish: bool
    lambda1_alone_in_ideal: bool
    s2_generator_in_ideal: bool

    @property
    def passed(self) -> bool:
        return (
            self.cross_form_lam1_in_ideal
            and self.cross_form_lam2_in_ideal
            and self.same_index_products_vanish
            and not self.lambda1_alone_in_ideal
            and self.s2_generator_in_ideal
        )


def verify_frac_identity() -> FracIdentityReport:
    ctx = BggContext()
    gb = ctx.symmetric_ideal_basis()
    lam1, lam2 = ctx.lam
    g1, g2, g3 = ctx.gamma[1], ctx.gamma[2], ctx.gamma[3]
    third = Fraction(1, 3)
    top = ctx.top_class()

    stated = gb.contains(lam1 * (third * g1 * g3) - top)
    cross1 = gb.contains(lam1 * (third * g2 * g3) - top)
    cross2 = gb.contains(lam2 * (third * g1 * g3) - top)
    same_zero = gb.contains(lam1 * (third * g1 * g3)) and gb.contains(
        lam2 * (third * g2 * g3)
    )
    lam1_alone = gb.contains(lam1)
    s2_gen = gb.contains(a2_relations(lam1, lam2)[0])
    return FracIdentityReport(
        stated_form_in_ideal=stated,
        cross_form_lam1_in_ideal=cross1,
        cross_form_lam2_in_ideal=cross2,
        same_index_products_vanish=same_zero,
        lambda1_alone_in_ideal=lam1_alone,
        s2_generator_in_ideal=s2_gen,
    )


def bgg_basis_independent() -> bool:
    """Normal forms of the 6 basis classes are linearly independent."""
    ctx = BggContext()
    gb = ctx.symmetric_ideal_basis()
    nfs = [gb.normal_form(p) for p in ctx.bgg_basis().values()]
    monomials = sorted({e for p in nfs for e in p.terms})
    matrix = [numerators([p.terms.get(e, 0) for e in monomials])[0] for p in nfs]
    return matrix_rank(matrix) == len(nfs)


def echelon_basis(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """An echelon basis of the row space of an integer matrix, by
    fraction-free elimination over Z: primitive integer rows, one per pivot
    column, in pivot order (their leading columns strictly increase).

    Each incoming row is divided by its content and given a positive
    leading entry; a row seen before in that form is dropped.  Otherwise its
    leading entry is cancelled against the basis row with that pivot (a
    cross-multiplication) and the row is divided by its content, until its
    leading column is new or the row is zero; a zero row is dependent and
    dropped.  The only division is by a content, and it is checked to be
    exact.  Entries must be ints; scale rational rows to integers with
    :func:`flagoct.scaled.numerators` first.
    """
    basis: Dict[int, List[int]] = {}
    seen = set()
    ncols = len(rows[0]) if rows else 0
    for row in rows:
        r = _primitive(list(row))
        lead = next(filter(r.__getitem__, range(ncols)), None)
        if lead is None:
            continue
        if r[lead] < 0:
            r = [-x for x in r]
        key = tuple(r)
        if key in seen:
            continue
        seen.add(key)
        while lead in basis:
            b = basis[lead]
            g = gcd(b[lead], r[lead])
            p, a = b[lead] // g, r[lead] // g
            r = _primitive([p * x - a * y for x, y in zip(r, b)])
            lead = next(filter(r.__getitem__, range(lead + 1, ncols)), None)
        if lead is not None:
            basis[lead] = r
            if len(basis) == ncols:
                break
    return [basis[c] for c in sorted(basis)]


def matrix_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix: the length of its :func:`echelon_basis`."""
    return len(echelon_basis(rows))


def _primitive(row: List[int]) -> List[int]:
    """The row divided by the gcd of its entries (a zero row unchanged)."""
    g = gcd(*row)
    if g <= 1:
        return row
    out = [x // g for x in row]
    # floor division leaves each remainder in [0, g), so the remainders are
    # all zero exactly when they sum to zero
    if sum(row) != g * sum(out):
        raise ArithmeticError("content division is not exact")
    return out


# -- fixed-point restriction table ----------------------------------------------


@functools.cache
def abstract_label(k: int) -> Polynomial:
    """The Hb label b_k of edge class k: b1, b2 and b3 = b1 + b2."""
    b1, b2 = B_RING.gens()
    if k == 1:
        return b1
    if k == 2:
        return b2
    if k == 3:
        return b1 + b2
    raise ValueError("edge class must be 1..3")


def _b_polys() -> Dict[str, Polynomial]:
    """The six signed labels of the restriction table, by their text."""
    labels = {f"b{k}": abstract_label(k) for k in (1, 2, 3)}
    return {**labels, **{f"-{text}": -p for text, p in labels.items()}}


# entries (sigma, bundle index k) -> restriction of the k-th Euler class,
# transcribed as fixed ground-truth data with b3 = b1 + b2 substituted
_RESTRICTION_ENTRIES: Dict[str, Tuple[str, str, str]] = {
    "1": ("b1", "b2", "b3"),
    "s1": ("-b1", "b3", "b2"),
    "s2": ("b3", "-b2", "b1"),
    "s1s2": ("b2", "-b3", "-b1"),
    "s2s1": ("-b3", "b1", "-b2"),
    "s1s2s1": ("-b2", "-b1", "-b3"),
}


class RestrictionTable:
    """Fixed-point restrictions of the three rank-8 Euler classes."""

    def __init__(self) -> None:
        self.ring = B_RING
        polys = _b_polys()
        self.entries: Dict[Tuple[str, int], Polynomial] = {}
        for name, row in _RESTRICTION_ENTRIES.items():
            for k, text in enumerate(row, start=1):
                self.entries[(name, k)] = polys[text]

    def restriction(self, sigma: Sigma3Element, k: int) -> Polynomial:
        if k not in (1, 2, 3):
            raise ValueError("bundle index must be 1..3")
        return self.entries[(sigma.name, k)]

    def row(self, sigma: Sigma3Element) -> Tuple[Polynomial, Polynomial, Polynomial]:
        return tuple(self.restriction(sigma, k) for k in (1, 2, 3))

    def rows(self) -> Dict[str, Tuple[Polynomial, Polynomial, Polynomial]]:
        return {name: self.row(sigma3_by_name(name)) for name in SIGMA3_NAMES}


class EquivariantRelationsReport(NamedTuple):
    symmetric_relations_ok: bool
    failures: Tuple[Tuple[str, int], ...]
    sum_consistency_ok: bool
    absolute_value_multiset_ok: bool

    @property
    def passed(self) -> bool:
        return (
            self.symmetric_relations_ok
            and self.sum_consistency_ok
            and self.absolute_value_multiset_ok
        )


def verify_equivariant_relations(
    rows: Optional[Dict[str, Tuple[Polynomial, Polynomial, Polynomial]]] = None,
) -> EquivariantRelationsReport:
    """Check the restriction rows (default: the transcribed table) per vertex."""
    if rows is None:
        rows = RestrictionTable().rows()
    b1, b2 = B_RING.gens()
    failures: List[Tuple[str, int]] = []
    expected = bundle_relations(b1, b2)
    for name in SIGMA3_NAMES:
        u, v, w = rows[name]
        for i, got, want in zip((2, 3), bundle_relations(u, v), expected):
            if got != want:
                failures.append((name, i))
    # the third entry always equals the sum of the first two (rank additivity)
    sums_ok = all(u + v - w == B_RING.zero() for u, v, w in rows.values())

    def a_key(p: Polynomial) -> Polynomial:
        # normalize sign so that -b is counted with b
        lead = p.leading_coefficient()
        return p if lead > 0 else -p

    multiset_ok = True
    targets = sorted([str(b1), str(b2), str(b1 + b2)] * 2)
    for k in range(3):
        col = sorted(str(a_key(rows[name][k])) for name in SIGMA3_NAMES)
        if col != targets:
            multiset_ok = False
    return EquivariantRelationsReport(
        symmetric_relations_ok=not failures,
        failures=tuple(failures),
        sum_consistency_ok=sums_ok,
        absolute_value_multiset_ok=multiset_ok,
    )
