"""The 27-dimensional Jordan algebra of Hermitian 3x3 octonion matrices."""

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest

from flagoct import jordan
from flagoct.jordan import (
    JordanMatrix,
    LinearOperator27,
    OctMatrix3,
    bracket_lemma_check,
    bracket_lemma_parts,
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
    _operator_tables,
    _slot_unit_hats,
)
from flagoct.octonion import Octonion
from flagoct.suites import run_suite


def from_coordinates(c):
    """The matrix of the 27 coordinates ``c``: the diagonal, then slots r, p, q."""
    return JordanMatrix(*c[:3], Octonion(c[11:19]), Octonion(c[19:27]), Octonion(c[3:11]))


# the canonical basis: the 27 unit coordinate vectors
CANONICAL_BASIS = tuple(from_coordinates([int(i == j) for j in range(27)]) for i in range(27))


def random_hermitian(rng, span=3):
    x = JordanMatrix.random_traceless(rng, span)
    return x + JordanMatrix.identity().scale(rng.randint(-span, span))


def ref_tilde(s):
    """The operator y -> [s, y] column by column: column j is the commutator
    of s with the j-th canonical basis matrix, through ``OctMatrix3.__mul__``."""
    cols = [s.commutator(b.to_matrix()).hermitian_coordinates() for b in CANONICAL_BASIS]
    den = lcm(*(d for _, d in cols))
    scaled = [[x * (den // d) for x in c] for c, d in cols]
    return LinearOperator27._of(tuple(itertools.chain.from_iterable(zip(*scaled))), den)


def grid_matrix(entries):
    """The OctMatrix3 with the given {(i, j): Octonion} entries, zero elsewhere."""
    return OctMatrix3([[entries.get((i, j), Octonion.zero()) for j in range(3)] for i in range(3)])


def skew_basis():
    """The 45 skew-Hermitian basis matrices in the order of the tilde table:
    e2..e8 on each diagonal entry, then e_u at (i, j) and -conj(e_u) at (j, i)
    for the r, p and q slots."""
    units = [Octonion.unit(u) for u in range(1, 9)]
    out = [grid_matrix({(k, k): e}) for k in range(3) for e in units[1:]]
    for i, j in ((1, 2), (0, 1), (0, 2)):
        out.extend(grid_matrix({(i, j): e, (j, i): -e.conjugate()}) for e in units)
    return out


def random_skew(rng, kind):
    """A seeded skew-Hermitian matrix of one of the shapes tilde is fed."""
    x = JordanMatrix.diagonal(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-4, 4), 0)
    x = x - JordanMatrix.identity().scale(x.trace() / 3)
    a = JordanMatrix.random_traceless(rng).scale(Fraction(rng.randint(1, 5), rng.randint(1, 7)))
    if kind == "rational":
        return matrix_commutator(x, a)
    if kind == "mixed-denominators":
        b = from_coordinates(
            [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7))) for _ in range(27)]
        )
        return matrix_commutator(x, b)
    if kind == "shifted":
        return matrix_commutator(x, a + JordanMatrix.identity().scale(rng.randint(1, 3)))
    if kind == "general":  # x not diagonal: imaginary diagonal entries too
        return matrix_commutator(random_hermitian(rng, 2), a)
    rows = [[Octonion.random(rng, 3) for _ in range(3)] for _ in range(3)]
    adjoint = [[rows[j][i].conjugate() for j in range(3)] for i in range(3)]
    return (OctMatrix3(rows) - OctMatrix3(adjoint)).scale(Fraction(1, rng.randint(1, 4)))


class TestBasicStructure:
    def test_to_matrix_is_hermitian(self):
        rng = random.Random(6)
        for _ in range(10):
            m = random_hermitian(rng).to_matrix()
            m.hermitian_coordinates()  # raises ValueError unless Hermitian

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

    def test_slot_cells_are_the_former_literals(self):
        # derived from ROOT_TRANSPOSITIONS; the literals are the former tables
        assert jordan._OFF_DIAGONAL == ((1, 2), (0, 1), (0, 2))
        grid = [tuple(range(8 * c, 8 * c + 8)) for c in range(9)]
        assert jordan._slot_blocks(grid) == grid[5] + grid[1] + grid[2]


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
        basis = CANONICAL_BASIS
        table = _operator_tables()[0]
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
        # the tabled sum against the column-by-column reference
        kinds = ("rational", "mixed-denominators", "shifted", "general", "m - m*")
        for n in range(50):
            s = random_skew(rng, kinds[n % len(kinds)])
            assert tilde_operator(s) == ref_tilde(s), (n, s)
        for s in skew_basis():
            assert tilde_operator(s) == ref_tilde(s)
        assert tilde_operator(OctMatrix3.zero()) == LinearOperator27.zero()
        # only skew s: a Hermitian matrix, a real diagonal entry, a lone
        # off-diagonal entry, and a skew matrix with one mirrored sign wrong
        k = skew_basis()[30]
        for bad in (
            b.to_matrix(),
            s + grid_matrix({(1, 1): Octonion.unit(1)}),
            grid_matrix({(0, 2): Octonion.unit(4)}),
            k - grid_matrix({(2, 1): Octonion.unit(2).scale(2)}),
        ):
            with pytest.raises(ValueError):
                tilde_operator(bad)

    def test_tilde_table_matches_every_basis_commutator(self):
        # image m, column j: [K_m, B_j] through OctMatrix3.__mul__, 45 x 27 pairs
        tilde_table = _operator_tables()[1]
        basis = [b.to_matrix() for b in CANONICAL_BASIS]
        assert len(tilde_table) == 45
        for m, k in enumerate(skew_basis()):
            image = dict(tilde_table[m])
            assert len(image) == len(tilde_table[m])
            for j, b in enumerate(basis):
                nums, den = (k * b - b * k).hermitian_coordinates()
                assert den == 1
                assert [image.get(27 * i + j, 0) for i in range(27)] == list(nums), (m, j)

    def test_tilde_operator_makes_no_matrix_products(self, monkeypatch):
        # the tables are built, and tilde evaluated, without OctMatrix3.__mul__
        original = OctMatrix3.__mul__
        calls = []

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        rng = random.Random(21)
        samples = [random_skew(rng, "rational") for _ in range(3)]
        monkeypatch.setattr(OctMatrix3, "__mul__", counting)
        monkeypatch.setattr(jordan, "_operator_tables", lru_cache(maxsize=None)(_operator_tables.__wrapped__))
        for s in samples:
            tilde_operator(s)
        assert calls == []

    @pytest.mark.parametrize("image", [0, 20])
    def test_suite_fails_on_a_flipped_diagonal_skew_image(self, monkeypatch, image):
        # images 0..20 are those of the skew basis matrices on the diagonal,
        # which only the suite's s = m - m* samples read
        struct, tilde = _operator_tables.__wrapped__()
        (idx, v), *rest = tilde[image]
        flipped = tilde[:image] + (((idx, -v), *rest),) + tilde[image + 1 :]
        monkeypatch.setattr(jordan, "_operator_tables", lambda: (struct, flipped))
        report = run_suite("jordan", seed=0)
        assert {c.id for c in report.checks if c.status == "fail"} == {"bracket-identities"}

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


class TestSuiteCatchesAWrongTable:
    """One sign flipped in a table fails the jordan checks built on it."""

    def statuses(self, monkeypatch, struct, tilde_table):
        monkeypatch.setattr(jordan, "_operator_tables", lambda: (struct, tilde_table))
        # hat(e_i) of the slot units are kept per process: build them afresh
        monkeypatch.setattr(jordan, "_slot_unit_hats", lru_cache(maxsize=None)(_slot_unit_hats.__wrapped__))
        return {c.id: c.status for c in run_suite("jordan").checks}

    def test_the_genuine_tables_pass(self, monkeypatch):
        statuses = self.statuses(monkeypatch, *_operator_tables())
        assert set(statuses.values()) == {"pass"}

    def test_a_flipped_tilde_entry_fails_the_bracket_identities(self, monkeypatch):
        struct, tilde_table = _operator_tables()
        m = 21  # the first off-diagonal image: [x, a] has diagonal entries 0
        (idx, v), *rest = tilde_table[m]
        flipped = tilde_table[:m] + (((idx, -v), *rest),) + tilde_table[m + 1 :]
        statuses = self.statuses(monkeypatch, struct, flipped)
        assert statuses["bracket-identities"] == "fail"

    def test_a_flipped_structure_entry_fails_an_operator_check(self, monkeypatch):
        struct, tilde_table = _operator_tables()
        flipped = [list(row) for row in struct]
        (k, c), *rest = flipped[0][11]  # E_11 o (e1 in slot p) = p / 2
        flipped[0][11] = [(k, -c), *rest]
        statuses = self.statuses(monkeypatch, flipped, tilde_table)
        assert "fail" in (statuses["bracket-identities"], statuses["operator-eigenvalue"])
        assert struct[0][11] == [(k, c), *rest]
