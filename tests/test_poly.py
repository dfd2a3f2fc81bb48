"""Exact sparse polynomial arithmetic and helpers."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagoct.poly import (
    FormProduct,
    Packing,
    PolyRing,
    Polynomial,
    RingMismatchError,
    divisor,
    elementary_symmetric,
    exact_divide,
    grevlex_key,
    pairwise_coprime,
    reduce_terms,
    scaled_terms,
)

R2 = PolyRing.make(("x", "y"))
R3 = PolyRing.make(("a", "b", "c"))


def poly_from_coeffs(ring, coeffs):
    """Build sum(c * monomial) from {exponents: int}."""
    p = ring.zero()
    for exps, c in coeffs.items():
        p = p + ring.monomial(exps, c)
    return p


small_coeff = st.integers(min_value=-4, max_value=4)


def random_poly(ring, max_exp=2, max_terms=4):
    exps = st.tuples(
        *[st.integers(min_value=0, max_value=max_exp)] * ring.nvars
    )
    return st.dictionaries(exps, small_coeff, max_size=max_terms).map(
        lambda d: poly_from_coeffs(ring, d)
    )


class TestRingBasics:
    def test_constants_and_vars(self):
        x, y = R2.gens()
        assert R2.zero().is_zero()
        assert R2.one().terms.get((0, 0), 0) == 1
        assert R2.const(Fraction(3, 2)).terms.get((0, 0), 0) == Fraction(3, 2)
        assert x != y
        assert R2.var("x") == x

    def test_truth_value_is_nonzero(self):
        x, y = R2.gens()
        assert not bool(R2.zero()) and not bool(x - x)
        assert bool(x) and bool(R2.one()) and bool(Fraction(1, 3) * y)

    def test_zero_coefficients_are_dropped(self):
        x, _ = R2.gens()
        assert (x - x).is_zero()
        assert not (x - x).terms

    def test_ring_mismatch_rejected(self):
        x, _ = R2.gens()
        a, _, _ = R3.gens()
        with pytest.raises(RingMismatchError):
            _ = x + a

    def test_unknown_variable_rejected(self):
        with pytest.raises(KeyError):
            R2.var("z")

    def test_rings_compare_and_hash_by_names_and_degrees(self):
        same = PolyRing.make(("x", "y"))
        assert same is not R2 and same == R2 and {same, R2} == {R2}
        assert hash(same) == hash(R2) == hash((("x", "y"), (1, 1)))
        x, y = R2.gens()
        assert PolyRing.make(("x", "y")).var("x") + y == x + y
        for other in (PolyRing.make(("x", "y"), (1, 2)), PolyRing.make(("y", "x")), R3):
            assert other != R2 and not other == R2
        assert R2 != (("x", "y"), (1, 1))
        with pytest.raises(AttributeError):
            R2._hash = 0


class TestArithmetic:
    def test_binomial_square(self):
        x, y = R2.gens()
        assert (x + y) ** 2 == x * x + 2 * x * y + y * y

    def test_scalar_mixing(self):
        x, y = R2.gens()
        p = Fraction(1, 3) * (2 * x + y)
        assert p.terms.get((1, 0), 0) == Fraction(2, 3)
        assert (p * 3).is_integral()
        assert (p / Fraction(1, 3)) == 2 * x + y

    def test_pow_negative_exponent_rejected(self):
        x, _ = R2.gens()
        with pytest.raises(ValueError):
            _ = x ** -1

    @given(random_poly(R2), random_poly(R2), random_poly(R2))
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(random_poly(R2))
    @settings(max_examples=30, deadline=None)
    def test_additive_inverse(self, p):
        assert (p - p).is_zero()
        assert p + (-p) == R2.zero()


class TestDegreesAndOrder:
    def test_grevlex_prefers_total_degree(self):
        assert grevlex_key((2, 0)) > grevlex_key((1, 0))
        assert grevlex_key((1, 1)) > grevlex_key((0, 1))

    def test_grevlex_tie_breaking(self):
        # among degree-2 monomials in (x, y): x^2 > xy > y^2
        assert grevlex_key((2, 0)) > grevlex_key((1, 1)) > grevlex_key((0, 2))

    def test_leading_data(self):
        x, y = R2.gens()
        p = 3 * x * x * y + x * y - 7 * y
        assert p.leading_exponents() == (2, 1)
        assert p.leading_coefficient() == 3
        assert p.monic().leading_coefficient() == 1
        assert p.total_degree() == 3

    def test_weighted_degree(self):
        ring = PolyRing.make(("u", "v"), (8, 8))
        u, v = ring.gens()
        p = u * v
        assert p.degree() == 16
        assert p.is_homogeneous()
        assert not (p + u).is_homogeneous()

    def test_degree_of_zero(self):
        assert R2.zero().total_degree() == -1


class TestEvaluationSubstitution:
    def test_substitute_linear_change(self):
        x, y = R2.gens()
        p = x * y
        q = p.substitute({"x": x + y, "y": x - y})
        assert q == x * x - y * y

    @given(random_poly(R2), random_poly(R2))
    @settings(max_examples=25, deadline=None)
    def test_substitution_is_ring_map(self, p, q):
        x, y = R2.gens()
        images = {"x": x + y, "y": x - 2 * y}
        lhs = (p * q).substitute(images)
        rhs = p.substitute(images) * q.substitute(images)
        assert lhs == rhs


class TestElementarySymmetric:
    def test_three_variables(self):
        a, b, c = R3.gens()
        assert elementary_symmetric(1, a, b, c) == a + b + c
        assert elementary_symmetric(2, a, b, c) == a * b + a * c + b * c
        assert elementary_symmetric(3, a, b, c) == a * b * c

    def test_sum_of_specific_arguments_vanishes(self):
        a, b, _ = R3.gens()
        args = (a, b - a, -b)
        assert elementary_symmetric(1, *args).is_zero()


def former_scaled_terms(terms):
    """scaled_terms as it was written before it read scaled.numerators."""
    den = lcm(*(c.denominator for c in terms.values()))
    if den == 1:
        return {k: int(c) for k, c in terms.items()}, 1
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


class TestScaledTerms:
    def test_equals_the_former_formula_on_seeded_dicts(self):
        rng = random.Random(24)
        kinds = {
            "int": lambda: rng.randint(-9, 9),
            "bool": lambda: rng.random() < 0.5,
            "Fraction": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
        }
        dicts = [{}]
        for kind in kinds.values():
            for size in range(1, 8):
                dicts.append({rng.randrange(1 << 20): kind() for _ in range(size)})
        dicts += [{k: rng.choice(list(kinds.values()))() for k in range(6)} for _ in range(20)]
        for terms in dicts:
            nums, den = scaled_terms(terms)
            assert (nums, den) == former_scaled_terms(terms)
            assert list(nums) == list(terms)
            assert all(type(c) is int for c in nums.values()) and type(den) is int
        assert scaled_terms({}) == ({}, 1)


class TestExactDivide:
    def test_difference_of_squares(self):
        x, y = R2.gens()
        q = exact_divide(x * x - y * y, x - y)
        assert q == x + y

    def test_non_divisible_returns_none(self):
        x, y = R2.gens()
        assert exact_divide(x * x + y, x - y) is None

    def test_zero_dividend(self):
        x, _ = R2.gens()
        assert exact_divide(R2.zero(), x) == R2.zero()

    @given(random_poly(R2), random_poly(R2))
    @settings(max_examples=40, deadline=None)
    def test_product_then_divide_roundtrip(self, f, g):
        if g.is_zero():
            return
        assert exact_divide(f * g, g) == f

    @given(random_poly(R3, max_terms=6), random_poly(R3), random_poly(R3))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_division(self, q, g, r):
        if g.is_zero():
            return
        f = q * g + r
        assert exact_divide(f, g) == reference_divide(f, g)

    def test_integral_division_of_terms(self):
        # (x^2 - xy) / (2x - 2y) = x/2: exact over Q, not over Z.  An int
        # leading coefficient makes the reduction divide over Z.
        P = Packing(2)
        x2, xy, x, y = (P.pack(e) for e in ((2, 0), (1, 1), (1, 0), (0, 1)))
        f = {x2: 1, xy: -1}
        g = {x: 2, y: -2}
        over_q = {e: Fraction(c) for e, c in g.items()}
        assert reduce_terms(f, [divisor(over_q, x)], P) == [{x: Fraction(1, 2)}]
        assert reduce_terms(f, [divisor(g, x)], P) is None
        assert reduce_terms({x2: 2, xy: -2}, [divisor(g, x)], P) == [{x: 1}]


def reference_divide(f, g):
    """Division by leading terms that rescans and rebuilds the remainder."""
    g_lead = g.leading_exponents()
    quotient = {}
    rem = f
    while rem.terms:
        e = rem.leading_exponents()
        diff = tuple(a - b for a, b in zip(e, g_lead))
        if any(d < 0 for d in diff):
            return None
        c = rem.terms[e] / g.terms[g_lead]
        quotient[diff] = c
        rem = rem - Polynomial(f.ring, {diff: c}) * g
    return Polynomial(f.ring, quotient)


class TestLinearForms:
    """A linear form is a degree-one Polynomial; two are proportional when
    their monic forms are equal."""

    def test_proportionality(self):
        x, y = R2.gens()
        assert (x - y).monic() == (3 * y - 3 * x).monic()
        assert (x - y).monic() != (x + y).monic()

    def test_form_product_expand(self):
        x, y = R2.gens()
        fp = FormProduct(Fraction(2), (x - y, x + y))
        assert fp.expand() == 2 * (x * x - y * y)
        assert str(fp) == "2 * (x - y) * (x + y)"

    def test_form_product_rejects_mixed_rings(self):
        with pytest.raises(RingMismatchError):
            FormProduct(Fraction(1), (R2.gens()[0], R3.gens()[0]))

    def test_pairwise_coprime(self):
        x, y = R2.gens()
        f1 = FormProduct(Fraction(1), (x,))
        f2 = FormProduct(Fraction(1), (y,))
        f3 = FormProduct(Fraction(1), (x + y,))
        shared = FormProduct(Fraction(1), (-2 * x, x + y))
        ok, witness = pairwise_coprime([f1, f2, f3])
        assert ok and witness is None
        ok, witness = pairwise_coprime([shared, f1])
        assert not ok
        # the witness is the shared factor made monic
        assert witness == (0, 1, x)
