"""Rational octonions: composition algebra identities and the unit table."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagoct.octonion import Octonion, associativity_witness, multiplication_table

coord = st.integers(min_value=-5, max_value=5)
octonions = st.tuples(*[coord] * 8).map(Octonion.from_coords)


def e(i):
    return Octonion.unit(i)


def real(c):
    """The real octonion ``c``: ``c`` times the identity e1."""
    return Octonion((c,) + (0,) * 7)


class TestUnitTable:
    def test_e1_is_identity(self):
        for i in range(1, 9):
            assert e(1) * e(i) == e(i)
            assert e(i) * e(1) == e(i)

    def test_imaginary_units_square_to_minus_one(self):
        for i in range(2, 9):
            assert e(i) * e(i) == -e(1)

    def test_table_is_antisymmetric_off_diagonal(self):
        table = multiplication_table()
        for i in range(2, 9):
            for j in range(2, 9):
                if i == j:
                    continue
                sign_ij, k_ij = table[i - 1][j - 1]
                sign_ji, k_ji = table[j - 1][i - 1]
                assert k_ij == k_ji
                assert sign_ij == -sign_ji

    def test_table_matches_products(self):
        table = multiplication_table()
        for i in range(1, 9):
            for j in range(1, 9):
                sign, k = table[i - 1][j - 1]
                assert e(i) * e(j) == e(k).scale(sign)

    def test_table_driven_product_matches_doubling_formula(self):
        rng = random.Random(7)
        for _ in range(50):
            x = Octonion.random(rng)
            y = Octonion.random(rng)
            assert x * y == x._doubling_mul(y)


class TestNonAssociativity:
    def test_stored_witness(self):
        a, b, c, assoc = associativity_witness()
        assert (a, b, c) == (e(2), e(3), e(5))
        assert (a * b) * c == e(8)
        assert a * (b * c) == -e(8)
        assert a.associator(b, c) == 2 * e(8) == assoc

    def test_associator_alternation(self):
        # swapping two arguments flips the associator's sign
        rng = random.Random(11)
        for _ in range(20):
            x, y, z = (Octonion.random(rng, 3) for _ in range(3))
            assert x.associator(y, z) == -y.associator(x, z)
            assert x.associator(y, z) == -x.associator(z, y)


class TestCompositionAlgebra:
    @given(octonions, octonions)
    @settings(max_examples=100, deadline=None)
    def test_norm_is_multiplicative(self, x, y):
        assert (x * y).norm_squared() == x.norm_squared() * y.norm_squared()

    @given(octonions, octonions)
    @settings(max_examples=100, deadline=None)
    def test_alternative_laws(self, x, y):
        assert x * (x * y) == (x * x) * y
        assert (y * x) * x == y * (x * x)

    @given(octonions)
    @settings(max_examples=50, deadline=None)
    def test_conjugation_recovers_norm(self, x):
        n = real(x.norm_squared())
        assert x * x.conjugate() == n
        assert x.conjugate() * x == n

    @given(octonions, octonions)
    @settings(max_examples=50, deadline=None)
    def test_conjugation_is_an_antiautomorphism(self, x, y):
        assert (x * y).conjugate() == y.conjugate() * x.conjugate()

    @given(octonions, octonions, octonions)
    @settings(max_examples=50, deadline=None)
    def test_moufang_identity(self, x, y, z):
        assert (x * y) * (z * x) == x * ((y * z) * x)


class TestStructure:
    def test_real_and_imaginary_parts(self):
        x = Octonion.from_coords((3, 1, 0, 0, 2, 0, 0, 0))
        assert x.real_part() == 3
        assert x == real(3) + Octonion.from_coords((0, 1, 0, 0, 2, 0, 0, 0))
        assert not x.is_real() and real(3).is_real()

    def test_scalars_are_central(self):
        rng = random.Random(3)
        half = real(Fraction(1, 2))
        for _ in range(10):
            x = Octonion.random(rng)
            assert half * x == x * half

    def test_coordinate_validation(self):
        with pytest.raises(ValueError):
            Octonion((Fraction(1),) * 7)
        with pytest.raises(ValueError):
            Octonion.unit(9)
        with pytest.raises(ValueError):
            Octonion.unit(0)
