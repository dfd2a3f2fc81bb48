"""The 27-dimensional Jordan algebra of Hermitian 3x3 octonion matrices."""

import itertools
import random
from fractions import Fraction

import pytest

from flagoct.jordan import (
    JordanMatrix,
    LinearOperator27,
    bracket_lemma_check,
    bracket_lemma_parts,
    canonical_basis,
    decompose,
    format_jordan,
    gamma_value,
    hat_operator,
    is_incident,
    is_projective_point,
    jordan_determinant,
    matrix_commutator,
    operator_eigenvalue_check,
    parse_jordan,
    root_space_check,
    slot_of_root,
    tilde_operator,
    _slot_unit_hats,
    _structure_constants,
)
from flagoct.octonion import Octonion


def random_hermitian(rng, span=3):
    x = JordanMatrix.random_traceless(rng, span)
    return x + JordanMatrix.identity().scale(rng.randint(-span, span))


class TestBasicStructure:
    def test_canonical_basis_has_27_elements(self):
        basis = canonical_basis()
        assert len(basis) == 27
        # coordinates give the dual pairing: basis vector i has a 1 in slot i
        for i, b in enumerate(basis):
            coords = b.coordinates()
            assert coords[i] == 1
            assert all(c == 0 for j, c in enumerate(coords) if j != i)

    def test_coordinates_roundtrip(self):
        rng = random.Random(5)
        for _ in range(10):
            a = random_hermitian(rng)
            assert JordanMatrix.from_coordinates(a.coordinates()) == a

    def test_to_matrix_is_hermitian(self):
        rng = random.Random(6)
        for _ in range(10):
            m = random_hermitian(rng).to_matrix()
            assert m.is_hermitian()

    def test_from_matrix_roundtrip(self):
        rng = random.Random(7)
        for _ in range(10):
            a = random_hermitian(rng)
            assert JordanMatrix.from_matrix(a.to_matrix()) == a

    def test_trace_and_diagonal(self):
        d = JordanMatrix.diagonal(1, 2, -3)
        assert d.trace() == 0
        assert d.is_diagonal()
        assert not JordanMatrix.slot_unit("r", 1).is_diagonal()

    def test_decompose_reassembles(self):
        rng = random.Random(8)
        a = JordanMatrix.random_traceless(rng)
        diag, h1, h2, h3 = decompose(a)
        assert diag + h1 + h2 + h3 == a
        assert diag.is_diagonal()

    def test_decompose_requires_traceless(self):
        with pytest.raises(ValueError):
            decompose(JordanMatrix.identity())


class TestJordanProduct:
    def test_commutative(self):
        rng = random.Random(9)
        for _ in range(10):
            a, b = random_hermitian(rng), random_hermitian(rng)
            assert a.jordan(b) == b.jordan(a)

    def test_identity_is_unit(self):
        rng = random.Random(10)
        one = JordanMatrix.identity()
        for _ in range(10):
            a = random_hermitian(rng)
            assert one.jordan(a) == a

    def test_jordan_identity(self):
        # (a.a).(a.b) = a.((a.a).b) -- the defining weak-associativity law
        rng = random.Random(11)
        for _ in range(8):
            a, b = random_hermitian(rng, 2), random_hermitian(rng, 2)
            sq = a.square()
            lhs = sq.jordan(a.jordan(b))
            rhs = a.jordan(sq.jordan(b))
            assert lhs == rhs

    def test_trace_form_is_associative_symmetric(self):
        rng = random.Random(12)
        for _ in range(8):
            a, b, c = (random_hermitian(rng, 2) for _ in range(3))
            assert a.trace_form(b) == b.trace_form(a)
            assert a.jordan(b).trace_form(c) == a.trace_form(
                b.jordan(c)
            )


class TestDeterminant:
    def test_diagonal_small_case(self):
        assert jordan_determinant(JordanMatrix.diagonal(2, 3, 5)) == 30

    def test_diagonal_matches_product(self):
        rng = random.Random(13)
        for _ in range(30):
            x1, x2, x3 = (Fraction(rng.randint(-6, 6)) for _ in range(3))
            d = JordanMatrix.diagonal(x1, x2, x3)
            assert jordan_determinant(d) == x1 * x2 * x3

    def test_projective_points_have_determinant_zero(self):
        p = JordanMatrix.diag_unit(1)
        assert is_projective_point(p)
        assert jordan_determinant(p) == 0

    def test_determinant_scaling_is_cubic(self):
        rng = random.Random(14)
        a = random_hermitian(rng)
        assert jordan_determinant(a.scale(2)) == 8 * jordan_determinant(a)


class TestProjectiveGeometry:
    def test_diagonal_units_are_points(self):
        for k in (1, 2, 3):
            assert is_projective_point(JordanMatrix.diag_unit(k))

    def test_identity_is_not_a_point(self):
        assert not is_projective_point(JordanMatrix.identity())

    def test_distinct_diagonal_units_are_incident(self):
        p, q = JordanMatrix.diag_unit(1), JordanMatrix.diag_unit(2)
        assert is_incident(p, q)
        assert is_incident(q, p)

    def test_point_is_not_self_incident(self):
        p = JordanMatrix.diag_unit(1)
        assert not is_incident(p, p)


class TestRootSpaces:
    # three diagonal traceless test vectors with distinct entries
    xs = [
        JordanMatrix.diagonal(1, 2, -3),
        JordanMatrix.diagonal(0, 1, -1),
        JordanMatrix.diagonal(3, -1, -2),
    ]

    def test_gamma_values_are_diagonal_differences(self):
        x = JordanMatrix.diagonal(1, 2, -3)
        assert gamma_value(1, x) == 2 - (-3)
        assert gamma_value(2, x) == 1 - 2
        assert gamma_value(3, x) == 1 - (-3)

    def test_all_24_root_basis_vectors(self):
        for x in self.xs:
            for k in (1, 2, 3):
                slot = slot_of_root(k)
                for i in range(1, 9):
                    a = JordanMatrix.slot_unit(slot, i)
                    assert root_space_check(x, a, k)

    def test_operator_eigenvalues(self):
        for x in self.xs:
            for k in (1, 2, 3):
                assert operator_eigenvalue_check(x, k)

    def test_kept_slot_operators_are_the_eight_unit_operators(self):
        for slot in ("p", "q", "r"):
            assert _slot_unit_hats(slot) == tuple(
                hat_operator(JordanMatrix.slot_unit(slot, i)) for i in range(1, 9)
            )

    def test_requires_diagonal_traceless(self):
        with pytest.raises(ValueError):
            root_space_check(
                JordanMatrix.diagonal(1, 1, 1), JordanMatrix.slot_unit("r", 1), 1
            )
        with pytest.raises(ValueError):
            root_space_check(
                JordanMatrix.slot_unit("r", 1), JordanMatrix.slot_unit("r", 1), 1
            )


class TestOperators:
    def test_structure_table_matches_every_basis_product(self):
        # the table is built from the products with i <= j; all 729 agree
        basis = canonical_basis()
        table = _structure_constants()
        for i, j in itertools.product(range(27), repeat=2):
            prod = basis[i].jordan(basis[j])
            doubled = [c * 2 for c in prod.coords]
            assert all(c.denominator == 1 for c in doubled)
            assert table[i][j] == [(k, int(c)) for k, c in enumerate(doubled) if c]

    def test_hat_operator_realizes_jordan_multiplication(self):
        rng = random.Random(15)
        for _ in range(5):
            a, b = random_hermitian(rng, 2), random_hermitian(rng, 2)
            hat = hat_operator(a)
            assert hat.apply(b) == a.jordan(b)

    def test_tilde_operator_is_commutator_action(self):
        rng = random.Random(16)
        x = JordanMatrix.random_traceless(rng, 2)
        a = random_hermitian(rng, 2)
        s = matrix_commutator(x, a)
        tilde = tilde_operator(s)
        b = random_hermitian(rng, 2)
        sm = s * b.to_matrix() - b.to_matrix() * s
        assert tilde.apply(b).to_matrix() == sm

    def test_operator_composition_matches_matrix_product(self):
        rng = random.Random(17)
        a, b = random_hermitian(rng, 2), random_hermitian(rng, 2)
        c = random_hermitian(rng, 2)
        composed = hat_operator(a) * hat_operator(b)
        assert composed.apply(c) == a.jordan(b.jordan(c))

    def test_bracket_identities_on_seeded_pairs(self):
        rng = random.Random(18)
        for _ in range(10):
            v1, v2 = rng.randint(-3, 3), rng.randint(-3, 3)
            x = JordanMatrix.diagonal(v1, v2, -v1 - v2)
            a = random_hermitian(rng, 2)
            first, second = bracket_lemma_parts(x, a)
            assert first and second
            assert bracket_lemma_check(x, a)

    def test_bracket_preconditions(self):
        rng = random.Random(19)
        a = random_hermitian(rng, 2)
        with pytest.raises(ValueError):
            bracket_lemma_parts(JordanMatrix.diagonal(1, 1, 1), a)
        with pytest.raises(ValueError):
            bracket_lemma_parts(JordanMatrix.slot_unit("p", 2), a)


class TestTextFormat:
    def test_roundtrip(self):
        rng = random.Random(20)
        for _ in range(10):
            a = random_hermitian(rng)
            assert parse_jordan(format_jordan(a)) == a

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_jordan("not a jordan matrix")
