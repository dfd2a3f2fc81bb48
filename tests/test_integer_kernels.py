"""Differential tests: the integer-scaled kernels against Fraction references.

``WeylElement``, ``weyl_act``, ``x_character`` and ``char_quotient`` hold
integers over a fixed denominator; ``Octonion``, ``Weight``, ``JordanMatrix``,
``OctMatrix3`` and ``LinearOperator27`` hold integer numerators over one
common denominator (``flagoct.scaled``).  The reference code below does the
same computations entry by entry in ``Fraction`` (for octonions, with the
Cayley-Dickson doubling formula; for octonion matrices, also with
``Octonion.__mul__``), the way the package did before it switched to
integers.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest

from flagoct.cohomology import B_RING
from flagoct import jordan
from flagoct.jordan import (
    JordanMatrix,
    LinearOperator27,
    OctMatrix3,
    _is_diagonal,
    format_jordan,
    hat_operator,
    jordan_determinant,
)
from flagoct.ktheory import CHAR_PACKING, Character, char_quotient, weyl_act, x_character
from flagoct.poly import FormProduct, Packing, PolyRing, Polynomial, ResourceLimitError, exact_divide
from flagoct.octonion import Octonion
from flagoct.suites import run_suite
from flagoct.weyl import (
    L,
    Weight,
    WeylElement,
    f4_simple_roots,
    f4_weyl,
    omega,
    sigma_tilde_generators,
    sigma_tilde_group,
    spin8_simple_roots,
    spin8_weyl,
)

# -- Fraction references: 4x4 Weyl matrices -----------------------------------


def ref_reflection(root):
    r = root.coords
    norm = sum(c * c for c in r)
    return tuple(
        tuple(Fraction(int(i == j)) - 2 * r[i] * r[j] / norm for j in range(4))
        for i in range(4)
    )


def ref_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4))
        for i in range(4)
    )


def ref_transpose(a):
    return tuple(zip(*a))


def ref_apply(a, coords):
    return tuple(sum(x * c for x, c in zip(row, coords)) for row in a)


IDENTITY = tuple(tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4))


def ref_closure(generators):
    seen = {IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        nxt = []
        for w in frontier:
            for g in generators:
                x = ref_mul(g, w)
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    return seen


def as_fractions(w):
    return tuple(tuple(Fraction(c, 2) for c in row) for row in w.doubled)


def random_word(rng, gens, length):
    return [rng.choice(gens) for _ in range(length)]


F4_ROOTS = list(f4_simple_roots())
SPIN8_ROOTS = list(spin8_simple_roots())
COMPLEMENT_ROOTS = [omega(4), omega(5) - omega(4), omega(5)]


class TestWeylElement:
    @pytest.mark.parametrize("roots", [F4_ROOTS, SPIN8_ROOTS, COMPLEMENT_ROOTS])
    def test_generators_match_reference(self, roots):
        for root in roots:
            w = WeylElement.reflection(root)
            assert as_fractions(w) == ref_reflection(root)
            assert WeylElement(ref_reflection(root)) == w

    def test_products_inverses_and_action_on_seeded_words(self):
        rng = random.Random(41)
        roots = F4_ROOTS + SPIN8_ROOTS + COMPLEMENT_ROOTS
        probes = [L(1), L(2) + L(3), omega(5), Weight.of(Fraction(1, 3), 2, -1, Fraction(5, 7))]
        for _ in range(40):
            word = random_word(rng, roots, rng.randint(1, 12))
            w, ref = WeylElement.identity(), IDENTITY
            for root in word:
                w = w * WeylElement.reflection(root)
                ref = ref_mul(ref, ref_reflection(root))
            assert as_fractions(w) == ref
            assert as_fractions(w.inverse()) == ref_transpose(ref)
            assert (w * w.inverse()).is_identity()
            for v in probes:
                assert w.apply(v).coords == ref_apply(ref, v.coords)

    def test_product_of_two_elements_matches_reference(self):
        rng = random.Random(42)
        for group in (f4_weyl(), spin8_weyl(), sigma_tilde_group()):
            elements = sorted(group, key=lambda w: w.doubled)
            for _ in range(100):
                a, b = rng.choice(elements), rng.choice(elements)
                assert as_fractions(a * b) == ref_mul(as_fractions(a), as_fractions(b))

    def test_product_halves_negative_even_sums_exactly(self):
        # every doubled entry odd, so each of the sixteen sums of four odd
        # products is even; many of them are negative
        rng = random.Random(43)

        def odd_halves():
            return [[Fraction(rng.choice((-5, -3, -1, 1, 3)), 2) for _ in range(4)] for _ in range(4)]

        negative = 0
        for _ in range(20):
            a, b = odd_halves(), odd_halves()
            ref = ref_mul(a, b)
            assert as_fractions(WeylElement(a) * WeylElement(b)) == ref
            negative += sum(c < 0 for row in ref for c in row)
        assert negative > 100

    def test_closures_equal_reference_closures(self):
        cases = [
            (f4_weyl(), F4_ROOTS, 1152),
            (spin8_weyl(), SPIN8_ROOTS, 192),
            (sigma_tilde_group(), COMPLEMENT_ROOTS, 6),
        ]
        for group, roots, order in cases:
            ref = ref_closure([ref_reflection(r) for r in roots])
            assert len(ref) == order
            assert {as_fractions(w) for w in group} == ref

    def test_equal_elements_hash_equal(self):
        gens = sigma_tilde_generators()
        braid = gens["omega4"] * gens["omega5_minus_omega4"] * gens["omega4"]
        assert braid == gens["omega5"]
        assert hash(braid) == hash(gens["omega5"])
        assert len({braid, gens["omega5"]}) == 1

    def test_entry_outside_half_integers_raises(self):
        third = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
        third[0][1] = Fraction(1, 3)
        with pytest.raises(ValueError):
            WeylElement(third)

    def test_product_with_inexact_halving_raises(self):
        # entries in (1/2)Z, but not orthogonal: the square has a 1/4 entry
        half = [[Fraction(1, 2) if (i, j) == (0, 0) else int(i == j) for j in range(4)] for i in range(4)]
        with pytest.raises(ValueError, match="1/2 Z"):
            WeylElement(half) * WeylElement(half)

    def test_product_with_a_negative_odd_sum_raises(self):
        # the (0, 0) sum of the doubled product is (-1)(1) = -1; the other
        # fifteen are even
        def diagonal(corner):
            return [[corner if i == j == 0 else int(i == j) for j in range(4)] for i in range(4)]

        a, b = WeylElement(diagonal(Fraction(-1, 2))), WeylElement(diagonal(Fraction(1, 2)))
        with pytest.raises(ValueError, match="1/2 Z"):
            a * b
        with pytest.raises(ValueError, match="1/2 Z"):
            b * a

    def test_lattice_predicate(self):
        for w in spin8_weyl():
            ref = as_fractions(w)
            images = [ref_apply(ref, (L(1) + L(2)).coords), ref_apply(ref, omega(5).coords)]
            assert all(
                all(c.denominator == 1 for c in v) or all(c.denominator == 2 for c in v)
                for v in images
            )
            assert w.preserves_lattice()
        scaled = WeylElement([[Fraction(1, 2) if i == j else 0 for j in range(4)] for i in range(4)])
        assert not scaled.preserves_lattice()

    def test_lattice_answer_is_kept_and_still_refuses(self):
        # the first call fills the element's _lattice slot; later calls read it
        scaled = WeylElement([[Fraction(1, 2) if i == j else 0 for j in range(4)] for i in range(4)])
        for _ in range(2):
            with pytest.raises(ValueError):
                weyl_act(scaled, x_character(3))
            assert scaled._lattice is False
        w = WeylElement.reflection(L(1))
        assert w._lattice is None
        assert weyl_act(w, x_character(3)) == x_character(3)
        assert w._lattice is True
        assert weyl_act(w, x_character(3)) == x_character(3)


# -- Fraction references: characters ------------------------------------------


def ref_weyl_act(w, f):
    """Apply the Fraction matrix of w to every doubled key of f."""
    m = as_fractions(w)
    out = {}
    for key, coeff in f.terms.items():
        image = ref_apply(m, [Fraction(k) for k in key])
        assert all(c.denominator == 1 for c in image)
        k = tuple(int(c) for c in image)
        out[k] = out.get(k, 0) + coeff
    return Character(out)


def ref_x_character(i):
    """The Weight-based construction of the four basic characters."""
    half = Fraction(1, 2)
    if i in (1, 2):
        weights = [
            Weight(tuple(half * s for s in signs))
            for signs in itertools.product((1, -1), repeat=4)
            if signs.count(-1) % 2 == i - 1
        ]
    elif i == 3:
        weights = [L(k) for k in range(1, 5)] + [-L(k) for k in range(1, 5)]
    else:
        weights = [
            L(a).scale(sa) + L(b).scale(sb)
            for a, b in itertools.combinations(range(1, 5), 2)
            for sa in (1, -1)
            for sb in (1, -1)
        ]
    return Character(Counter(w.doubled_key() for w in weights))


def random_character(rng):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        parity = rng.randint(0, 1)
        key = tuple(2 * rng.randint(-3, 3) + parity for _ in range(4))
        terms[key] = rng.randint(-4, 4)
    return Character(terms)


class TestCharacters:
    def test_x_characters_match_weight_construction(self):
        for i in range(1, 5):
            assert x_character(i) == ref_x_character(i)
            assert x_character(i).dimension() == (8, 8, 8, 24)[i - 1]
            assert x_character(i) is x_character(i)
        with pytest.raises(ValueError):
            x_character(5)

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_ktheory_suite_leaves_the_kept_characters_unchanged(self, corrupt):
        # x_character hands every caller the same four objects
        run_suite("ktheory", seed=0, corrupt=corrupt)
        for i in range(1, 5):
            assert x_character(i) == ref_x_character(i)

    def test_weyl_act_on_every_key_of_the_basic_characters(self):
        rng = random.Random(40)
        elements = sorted(f4_weyl(), key=lambda w: w.doubled)
        reflections = [WeylElement.reflection(r) for r in F4_ROOTS + COMPLEMENT_ROOTS]
        for w in reflections + rng.sample(elements, 60):
            for i in range(1, 5):
                assert weyl_act(w, x_character(i)) == ref_weyl_act(w, x_character(i))

    def test_weyl_act_on_seeded_characters(self):
        rng = random.Random(43)
        elements = sorted(f4_weyl(), key=lambda w: w.doubled)
        for _ in range(60):
            w, f = rng.choice(elements), random_character(rng)
            assert weyl_act(w, f) == ref_weyl_act(w, f)

    def test_weyl_act_refuses_an_image_outside_the_fields(self):
        # the reflection in (1/2)(1,-1,-1,-1) maps the doubled weight
        # (k, k, k, k) to (2k, 0, 0, 0): in the lattice, but past the fields
        top = CHAR_PACKING.limit - CHAR_PACKING.bias
        w = WeylElement.reflection(Weight((Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2))))
        edge = Character({(top, top, top, top): 3})
        with pytest.raises(ResourceLimitError, match="do not fit"):
            weyl_act(w, edge)
        inside = Character({(top // 2, top // 2, top // 2, top // 2): 3})
        assert weyl_act(w, inside) == ref_weyl_act(w, inside)

    def test_weyl_act_refuses_an_odd_image(self):
        # a key off the lattice, wrapped without validation, has an image
        # that halves to no integer vector
        w = WeylElement.reflection(Weight((Fraction(1, 2),) * 4))
        off_lattice = Character._of({CHAR_PACKING.pack((1, 0, 0, 0)): 1})
        with pytest.raises(ValueError, match="1/2 Z"):
            weyl_act(w, off_lattice)

    def test_weyl_act_packs_no_key_one_by_one(self, monkeypatch):
        # one pass over the packed keys: the images are packed inline
        f, w = x_character(4), WeylElement.reflection(L(1) - L(2))
        expected = ref_weyl_act(w, f)

        def refused(*args):
            raise AssertionError("per-key pack")

        monkeypatch.setattr(Packing, "pack", refused)
        assert weyl_act(w, f) == expected


DIV_RING = PolyRing.make(("t1", "t2", "t3", "t4"))


def ref_char_quotient(d, f):
    """f/d through Fraction polynomials: shift both supports into the
    nonnegative orthant, divide with exact_divide, and keep an integral
    quotient on the lattice."""

    def shifted(c):
        shift = tuple(min(k[i] for k in c.terms) for i in range(4))
        terms = {
            tuple(k[i] - shift[i] for i in range(4)): Fraction(v)
            for k, v in c.terms.items()
        }
        return Polynomial(DIV_RING, terms), shift

    if f.is_zero():
        return Character.zero()
    (pf, sf), (pd, sd) = shifted(f), shifted(d)
    q = exact_divide(pf, pd)
    if q is None or any(c.denominator != 1 for c in q.terms.values()):
        return None
    out = {}
    for e, c in q.terms.items():
        key = tuple(x + a - b for x, a, b in zip(e, sf, sd))
        if len({k % 2 for k in key}) != 1:
            return None
        out[key] = int(c)
    return Character(out)


class TestCharQuotient:
    def test_matches_fraction_reference_on_seeded_characters(self):
        rng = random.Random(47)
        outcomes = set()
        for _ in range(300):
            d = random_character(rng)
            if d.is_zero():
                continue
            f = random_character(rng) * d
            if rng.random() < 0.3:
                f = f + random_character(rng)
            if rng.random() < 0.2:
                d = Character.constant(rng.choice((2, 3, -2))) * d
            q = char_quotient(d, f)
            assert q == ref_char_quotient(d, f)
            if q is not None:
                assert q * d == f
            outcomes.add(q is None)
        assert outcomes == {True, False}

    def test_non_integral_quotient_is_none(self):
        d = Character({(0, 0, 0, 0): 2, (2, 0, 0, 0): -2})
        f = Character({(2, 2, 0, 0): 1, (4, 2, 0, 0): -1})
        assert char_quotient(d, f) is None
        assert char_quotient(d, Character.constant(2) * f) == Character({(2, 2, 0, 0): 1})


# -- Fraction references: octonion matrices ----------------------------------


def random_octonion(rng, span=3):
    return Octonion(
        tuple(Fraction(rng.randint(-span, span), rng.randint(1, 6)) for _ in range(8))
    )


def random_grid(rng):
    return [[random_octonion(rng) for _ in range(3)] for _ in range(3)]


def ref_grid_mul(a, b):
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            acc = Octonion.zero()
            for k in range(3):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def ref_grid_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_is_hermitian(a):
    return all(a[i][i].is_real() for i in range(3)) and all(
        a[j][i] == a[i][j].conjugate() for i in range(3) for j in range(3)
    )


def grid(m):
    """The 3x3 octonion entries of ``m``, row by row."""
    e = [Octonion(m.coords[k : k + 8]) for k in range(0, 72, 8)]
    return [e[i : i + 3] for i in range(0, 9, 3)]


def real(c):
    """The real octonion ``c``."""
    return Octonion((c,) + (0,) * 7)


def is_hermitian(m):
    """Whether ``m.hermitian_coordinates()`` accepts ``m``."""
    try:
        m.hermitian_coordinates()
    except ValueError:
        return False
    return True


class TestOctMatrix3:
    def test_product_and_commutator_match_entrywise_octonions(self):
        rng = random.Random(44)
        for _ in range(8):
            ga, gb = random_grid(rng), random_grid(rng)
            a, b = OctMatrix3(ga), OctMatrix3(gb)
            assert a.den > 1 and b.den > 1
            assert grid(a * b) == ref_grid_mul(ga, gb)
            assert grid(a.commutator(b)) == ref_grid_sub(
                ref_grid_mul(ga, gb), ref_grid_mul(gb, ga)
            )
            assert grid(a + b) == [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(ga, gb)]
            assert grid(a.scale(Fraction(-2, 3))) == [[x.scale(Fraction(-2, 3)) for x in r] for r in ga]

    def test_hermitian_predicate_matches_reference(self):
        rng = random.Random(45)
        for _ in range(8):
            x = JordanMatrix.random_traceless(rng).scale(Fraction(1, rng.randint(2, 5)))
            h = x.to_matrix()
            assert is_hermitian(h) and ref_is_hermitian(grid(h))
            g = grid(h)  # Hermitian off the diagonal, one imaginary diagonal entry
            k = rng.randrange(3)
            g[k][k] = g[k][k] + Octonion.unit(rng.randint(2, 8))
            assert not is_hermitian(OctMatrix3(g)) and not ref_is_hermitian(g)
            g = random_grid(rng)
            assert is_hermitian(OctMatrix3(g)) == ref_is_hermitian(g)
            s = h.commutator(JordanMatrix.random_traceless(rng).to_matrix())
            assert is_hermitian(s) == ref_is_hermitian(grid(s))

    def test_from_matrix_rejects_non_hermitian(self):
        rng = random.Random(46)
        with pytest.raises(ValueError):
            JordanMatrix.from_matrix(OctMatrix3(random_grid(rng)))
        skew = JordanMatrix.random_traceless(rng).to_matrix().commutator(
            JordanMatrix.random_traceless(rng).to_matrix()
        )
        assert not skew.is_zero()
        with pytest.raises(ValueError):
            JordanMatrix.from_matrix(skew)

    def test_jordan_matrix_roundtrip_with_denominators(self):
        rng = random.Random(47)
        for _ in range(8):
            a = JordanMatrix.random_traceless(rng).scale(Fraction(rng.randint(1, 5), rng.randint(2, 7)))
            m = a.to_matrix()
            ref = [
                [real(a.x1), a.p, a.q],
                [a.p.conjugate(), real(a.x2), a.r],
                [a.q.conjugate(), a.r.conjugate(), real(a.x3)],
            ]
            assert grid(m) == ref
            assert m == OctMatrix3(ref)
            assert JordanMatrix.from_matrix(m) == a


# -- Fraction references: 27x27 operators --------------------------------------


def random_rows(rng, density=0.3):
    return [
        [
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < density else Fraction(0)
            for _ in range(27)
        ]
        for _ in range(27)
    ]


def ref_matmul(a, b):
    """Every one of the 27^3 entry products, taken on integer numerators over
    each factor's common denominator; one Fraction per entry at the end."""
    da, db = (lcm(*(x.denominator for row in m for x in row)) for m in (a, b))
    na = [[int(x * da) for x in row] for row in a]
    cols = list(zip(*([int(x * db) for x in row] for row in b)))
    return [[Fraction(sum(map(mul, row, col)), da * db) for col in cols] for row in na]


def as_rows(op):
    c = op.coords
    return [list(c[k : k + 27]) for k in range(0, 729, 27)]


def jordan_from_coordinates(c):
    """The Jordan matrix of the 27 coordinates ``c``: the diagonal, then slots r, p, q."""
    return JordanMatrix(*c[:3], Octonion(c[11:19]), Octonion(c[19:27]), Octonion(c[3:11]))


# the canonical basis of the Jordan algebra: the 27 unit coordinate vectors
JORDAN_BASIS = tuple(jordan_from_coordinates([int(i == j) for j in range(27)]) for i in range(27))


def ref_operator_of(fn):
    """The matrix of a linear map of Jordan matrices: column j is the image of
    the j-th canonical basis matrix."""
    images = [fn(b).coords for b in JORDAN_BASIS]
    return LinearOperator27([[images[j][i] for j in range(27)] for i in range(27)])


class TestLinearOperator27:
    def test_arithmetic_matches_fraction_reference(self):
        rng = random.Random(48)
        for _ in range(3):
            ra, rb = random_rows(rng), random_rows(rng)
            a, b = LinearOperator27(ra), LinearOperator27(rb)
            assert as_rows(a) == ra
            assert as_rows(a * b) == ref_matmul(ra, rb)
            assert as_rows(a + b) == [[x + y for x, y in zip(p, q)] for p, q in zip(ra, rb)]
            assert as_rows(a - b) == [[x - y for x, y in zip(p, q)] for p, q in zip(ra, rb)]
            c = Fraction(-3, 7)
            assert as_rows(a.scale(c)) == [[c * x for x in r] for r in ra]
            assert (a == b) == (ra == rb)
            assert a == LinearOperator27(ra) and a != b
            assert (a - a).is_zero() and (a - a) == LinearOperator27.zero()

    def test_two_denominators_compare_and_hash_equal(self):
        rng = random.Random(49)
        rows = random_rows(rng)
        a = LinearOperator27(rows)
        via_thirds = a.scale(Fraction(1, 3)).scale(3)
        via_sum = a.scale(Fraction(1, 6)) + a.scale(Fraction(5, 6))
        for other in (via_thirds, via_sum):
            assert other == a
            assert hash(other) == hash(a)
            assert (other.nums, other.den) == (a.nums, a.den)
        assert len({a, via_thirds, via_sum}) == 1

    def test_hat_operator_equals_operator_of_jordan_product(self):
        rng = random.Random(50)
        for _ in range(4):
            a = JordanMatrix.random_traceless(rng).scale(Fraction(rng.randint(1, 4), rng.randint(1, 5)))
            a = a + JordanMatrix.identity().scale(Fraction(rng.randint(-3, 3), 2))
            assert hat_operator(a) == ref_operator_of(a.jordan)


# -- the sparse products against the dense references -------------------------
# LinearOperator27.__mul__ runs through the nonzero entries of each row of its
# right factor and OctMatrix3.__mul__ through the nonzero numerators of both
# factors; the references above multiply every entry.  The inputs are the
# shapes the jordan suite feeds them (diagonal hat(x), sparse hat(e_i), the 27
# Hermitian and 45 skew basis matrices of the operator tables) and the shapes
# that stress the skipping (zero rows and blocks, one entry).


def diagonal_rows(rng):
    return [
        [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if i == j else Fraction(0) for j in range(27)]
        for i in range(27)
    ]


def unit_rows(rng):
    rows = [[Fraction(0)] * 27 for _ in range(27)]
    rows[rng.randrange(27)][rng.randrange(27)] = Fraction(rng.choice((1, -1)), rng.randint(1, 3))
    return rows


def zero_row_rows(rng):
    rows = random_rows(rng, density=0.5)
    for i in rng.sample(range(27), 14):
        rows[i] = [Fraction(0)] * 27
    return rows


def mixed_denominator_rows(rng):
    return [
        [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7, 9))) for _ in range(27)]
        for _ in range(27)
    ]


def zero_rows(rng):
    return [[Fraction(0)] * 27 for _ in range(27)]


def identity_rows(rng):
    return [[Fraction(int(i == j)) for j in range(27)] for i in range(27)]


def diagonal_with_zeros_rows(rng):
    rows = diagonal_rows(rng)
    for i in rng.sample(range(27), 9):
        rows[i][i] = Fraction(0)
    return rows


def diagonal_plus_one_rows(rng):
    rows = diagonal_rows(rng)
    i, j = rng.sample(range(27), 2)
    rows[i][j] = Fraction(rng.choice((1, -1)), rng.randint(1, 3))
    return rows


OPERATOR_SHAPES = {
    "diagonal": diagonal_rows,
    "diagonal-with-zeros": diagonal_with_zeros_rows,
    "diagonal-plus-one": diagonal_plus_one_rows,
    "identity": identity_rows,
    "zero": zero_rows,
    "unit": unit_rows,
    "zero-rows": zero_row_rows,
    "mixed-denominators": mixed_denominator_rows,
}


def random_grid_with_zero_blocks(rng):
    g = random_grid(rng)
    for i, j in rng.sample([(i, j) for i in range(3) for j in range(3)], rng.randint(3, 8)):
        g[i][j] = Octonion.zero()
    return g


class TestSparseProducts:
    @pytest.mark.parametrize(
        "left, right", list(itertools.combinations_with_replacement(sorted(OPERATOR_SHAPES), 2))
    )
    def test_operator_product_and_commutator_match_dense_reference(self, left, right):
        rng = random.Random(f"{left} {right}")
        ra, rb = OPERATOR_SHAPES[left](rng), OPERATOR_SHAPES[right](rng)
        a, b = LinearOperator27(ra), LinearOperator27(rb)
        ab, ba = ref_matmul(ra, rb), ref_matmul(rb, ra)
        assert as_rows(a * b) == ab
        assert as_rows(b * a) == ba
        assert as_rows(a.commutator(b)) == [[x - y for x, y in zip(p, q)] for p, q in zip(ab, ba)]

    @pytest.mark.parametrize(
        "shape, diagonal",
        [("zero", True), ("identity", True), ("diagonal", True), ("diagonal-with-zeros", True),
         ("diagonal-plus-one", False), ("mixed-denominators", False)],
    )
    def test_a_diagonal_factor_is_detected(self, shape, diagonal):
        # the product scales rows or columns exactly when a factor passes
        # this test; one off-diagonal entry must send it the general way
        op = LinearOperator27(OPERATOR_SHAPES[shape](random.Random(shape)))
        assert _is_diagonal(op.nums) is diagonal

    def test_hat_of_a_diagonal_matrix_is_a_diagonal_factor(self):
        for x in (JordanMatrix.diagonal(1, -1, 0), JordanMatrix.diagonal(Fraction(2, 3), -2, Fraction(4, 3))):
            assert _is_diagonal(hat_operator(x).nums)
        assert not _is_diagonal(hat_operator(JordanMatrix.slot_unit("p", 3)).nums)

    def test_hat_operators_of_the_suite_match_dense_reference(self):
        # hat(x) for diagonal x is diagonal; hat(e_i) has a few entries per row
        rng = random.Random(75)
        x = JordanMatrix.diagonal(Fraction(rng.randint(1, 5), 3), -2, Fraction(rng.randint(1, 5), 7))
        hx = hat_operator(x)
        rx = as_rows(hx)
        for b in rng.sample(JORDAN_BASIS, 3):
            hb = hat_operator(b)
            rb = as_rows(hb)
            xb, bx = ref_matmul(rx, rb), ref_matmul(rb, rx)
            assert as_rows(hx.commutator(hb)) == [[p - q for p, q in zip(u, v)] for u, v in zip(xb, bx)]

    def test_commutator_goes_through_the_product(self, monkeypatch):
        # the benchmark times LinearOperator27.__mul__ under verify all, so the
        # commutator must stay two products
        original = LinearOperator27.__mul__
        calls = []

        def counting(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(LinearOperator27, "__mul__", counting)
        a = hat_operator(JordanMatrix.diagonal(1, -1, 0))
        b = hat_operator(JordanMatrix.slot_unit("p", 3))
        assert a.commutator(b) == original(a, b) - original(b, a)
        assert len(calls) == 2

    def test_matrix_products_with_the_basis_matrices(self):
        # the 27 Hermitian and 45 skew basis matrices of the operator tables,
        # against dense grids and in every product the tables take: B_i B_j
        # and K_m B_j
        rng = random.Random(76)
        matrices = jordan._basis(False) + jordan._basis(True)
        assert matrices[:27] == [b.to_matrix() for b in JORDAN_BASIS]
        basis = [grid(m) for m in matrices]
        for gs in (random_grid(rng), random_grid_with_zero_blocks(rng)):
            s = OctMatrix3(gs)
            for y, gy in zip(matrices, basis):
                sy, ys = ref_grid_mul(gs, gy), ref_grid_mul(gy, gs)
                assert grid(s * y) == sy
                assert grid(y * s) == ys
                assert grid(s.commutator(y)) == ref_grid_sub(sy, ys)
        for a, ga in zip(matrices, basis):
            for b, gb in zip(matrices[:27], basis):
                assert grid(a * b) == ref_grid_mul(ga, gb)

    def test_matrix_products_with_zero_blocks(self):
        rng = random.Random(77)
        zero = [[Octonion.zero()] * 3 for _ in range(3)]
        for _ in range(12):
            ga, gb = random_grid_with_zero_blocks(rng), random_grid_with_zero_blocks(rng)
            a, b = OctMatrix3(ga), OctMatrix3(gb)
            ab, ba = ref_grid_mul(ga, gb), ref_grid_mul(gb, ga)
            assert grid(a * b) == ab
            assert grid(a.commutator(b)) == ref_grid_sub(ab, ba)
            assert grid(a * OctMatrix3(zero)) == zero == grid(OctMatrix3(zero) * a)


# -- Fraction references: octonions, Jordan matrices and weights ---------------
# Each value is a tuple of Fractions: 8 octonion coordinates, 4 weight
# coordinates, or the 27 canonical Jordan coordinates (x1, x2, x3, r, p, q).


def ref_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def ref_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def ref_neg(x):
    return tuple(-a for a in x)


def ref_scale(c, x):
    return tuple(c * a for a in x)


def ref_q_mul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def ref_conj(x):
    return (x[0],) + tuple(-a for a in x[1:])


def ref_oct_mul(x, y):
    """(a, b) * (c, d) = (a*c - conj(d)*b, d*a + b*conj(c)) on Fraction quaternions."""
    a, b, c, d = x[:4], x[4:], y[:4], y[4:]
    return ref_sub(ref_q_mul(a, c), ref_q_mul(ref_conj(d), b)) + ref_add(
        ref_q_mul(d, a), ref_q_mul(b, ref_conj(c))
    )


def ref_norm_squared(x):
    return sum(a * a for a in x)


ZERO7 = (Fraction(0),) * 7


def ref_jordan_grid(c):
    x1, x2, x3 = ((v,) + ZERO7 for v in c[:3])
    r, p, q = c[3:11], c[11:19], c[19:27]
    return [[x1, p, q], [ref_conj(p), x2, r], [ref_conj(q), ref_conj(r), x3]]


def ref_octonion_grid_mul(a, b):
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            acc = (Fraction(0),) * 8
            for k in range(3):
                acc = ref_add(acc, ref_oct_mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def ref_jordan(x, y):
    a, b = ref_jordan_grid(x), ref_jordan_grid(y)
    ab, ba = ref_octonion_grid_mul(a, b), ref_octonion_grid_mul(b, a)
    s = [[ref_scale(Fraction(1, 2), ref_add(u, v)) for u, v in zip(r1, r2)] for r1, r2 in zip(ab, ba)]
    return (s[0][0][0], s[1][1][0], s[2][2][0]) + s[1][2] + s[0][1] + s[0][2]


def ref_trace(x):
    return x[0] + x[1] + x[2]


def ref_trace_form(x, y):
    prod = ref_octonion_grid_mul(ref_jordan_grid(x), ref_jordan_grid(y))
    return sum(prod[i][i][0] for i in range(3))


def ref_determinant(x):
    sq = ref_jordan(x, x)
    cube = ref_jordan(x, sq)
    t = ref_trace(x)
    return Fraction(1, 3) * ref_trace(cube) - Fraction(1, 2) * ref_trace(sq) * t + Fraction(1, 6) * t**3


def ref_format(x):
    def text(v):
        return "(" + ",".join(str(c) for c in v) + ")"

    return f"{x[0]},{x[1]},{x[2]}; p={text(x[11:19])}; q={text(x[19:27])}; r={text(x[3:11])}"


def ref_doubled_key(x):
    doubled = [2 * c for c in x]
    if any(c.denominator != 1 for c in doubled) or len({c.numerator % 2 for c in doubled}) != 1:
        raise ValueError("not in the lattice")
    return tuple(c.numerator for c in doubled)


def random_fractions(rng, n, span=5):
    return tuple(
        Fraction(rng.randint(-span, span), rng.randint(1, 6)) if rng.random() < 0.8 else Fraction(0)
        for _ in range(n)
    )


def random_jordan_coords(rng):
    # octonion slots with independent denominators, so products mix them
    return random_fractions(rng, 3) + random_fractions(rng, 24, span=3)


SCALES = (Fraction(-3), Fraction(0), Fraction(5, 7), Fraction(-2, 9), 4)

STORE_TYPES = {
    "octonion": (lambda coords: Octonion(coords), 8),
    "weight": (lambda coords: Weight(coords), 4),
    "jordan": (jordan_from_coordinates, 27),
    "octmatrix": (
        lambda coords: OctMatrix3(
            [[Octonion(coords[8 * e : 8 * e + 8]) for e in range(i, i + 3)] for i in range(0, 9, 3)]
        ),
        72,
    ),
    "operator": (lambda coords: LinearOperator27([coords[k : k + 27] for k in range(0, 729, 27)]), 729),
}


def fractions_over(rng, n, den):
    """n values over exactly ``den``: the first is 1/den, the rest k/den."""
    return (Fraction(1, den),) + tuple(Fraction(rng.randint(-9, 9), den) for _ in range(n - 1))


def assert_lowest_terms(v):
    assert v.den > 0 and gcd(v.den, *v.nums) == 1


class TestExactStore:
    @pytest.mark.parametrize("kind", sorted(STORE_TYPES))
    def test_linear_structure_matches_fraction_reference(self, kind):
        make, n = STORE_TYPES[kind]
        rng = random.Random(60)
        for _ in range(30 if n < 100 else 4):
            rx, ry = random_fractions(rng, n), random_fractions(rng, n)
            x, y = make(rx), make(ry)
            cases = [(x, rx), (x + y, ref_add(rx, ry)), (x - y, ref_sub(rx, ry)), (-x, ref_neg(rx))]
            cases += [(x.scale(c), ref_scale(c, rx)) for c in SCALES]
            for value, ref in cases:
                assert value.coords == ref
                assert_lowest_terms(value)
            assert (x - x).is_zero()
            assert (x + y).is_zero() == all(c == 0 for c in ref_add(rx, ry))

    @pytest.mark.parametrize("kind", sorted(STORE_TYPES))
    @pytest.mark.parametrize("same_den", [True, False], ids=["equal-den", "lcm"])
    def test_both_denominator_paths_match_fraction_reference(self, kind, same_den):
        make, n = STORE_TYPES[kind]
        rng = random.Random(67)
        for _ in range(10):
            dx = rng.choice((1, 2, 6, 15))
            dy = dx if same_den else rng.choice([d for d in (1, 3, 4, 10) if d != dx])
            rx, ry = fractions_over(rng, n, dx), fractions_over(rng, n, dy)
            x, y = make(rx), make(ry)
            assert (x.den, y.den) == (dx, dy)
            cases = [(x + y, ref_add(rx, ry)), (x - y, ref_sub(rx, ry)), (y - x, ref_sub(ry, rx))]
            cases += [(x.scale(c), ref_scale(c, rx)) for c in SCALES]
            for value, ref in cases:
                assert value.coords == ref
                assert_lowest_terms(value)
        # equal denominators whose sum reduces
        half = x.scale(Fraction(1, 2))
        assert half + half == x and (half + half).den == x.den
        assert (x - x).is_zero() and (x - x).den == 1

    @pytest.mark.parametrize("kind", sorted(STORE_TYPES))
    def test_equal_values_over_different_denominators_compare_and_hash_equal(self, kind):
        make, n = STORE_TYPES[kind]
        rng = random.Random(61)
        for _ in range(10):
            a = make(random_fractions(rng, n))
            via_thirds = a.scale(Fraction(1, 3)).scale(3)
            via_sum = a.scale(Fraction(1, 6)) + a.scale(Fraction(5, 6))
            via_difference = a.scale(Fraction(7, 4)) - a.scale(Fraction(3, 4))
            for other in (via_thirds, via_sum, via_difference):
                assert other == a and hash(other) == hash(a)
                assert (other.nums, other.den) == (a.nums, a.den)
            assert len({a, via_thirds, via_sum, via_difference}) == 1

    def test_kinds_never_compare_equal(self):
        assert Octonion.zero() != Weight.zero()
        assert Octonion.zero() != JordanMatrix.zero()
        with pytest.raises(TypeError):
            Octonion.zero() + Weight.zero()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Octonion((0.1,) + (0,) * 7),
            lambda: JordanMatrix.diagonal(0.1, 0, 0),
            lambda: Weight.of(0.5, 0, 0, 0),
            lambda: Octonion.unit(1).scale(0.5),
            lambda: Octonion.unit(2) * 0.5,
            lambda: Polynomial(B_RING, {(1, 0): 0.1}),
            lambda: B_RING.const(0.5),
            lambda: 0.5 - B_RING.var("b1"),
            lambda: B_RING.var("b1") / 0.5,
            lambda: B_RING.var("b1") * 0.5,
            lambda: B_RING.var("b1") + 0.5,
            lambda: FormProduct(0.5, (B_RING.var("b1"),)),
            lambda: Character({(0, 0, 0, 0): 0.5}),
            lambda: Character({(0, 0, 0, 0): 2.7}),
            lambda: Character.constant(1.9),
            lambda: WeylElement([[0.5] * 4] * 4),
        ],
        ids=[
            "octonion", "jordan-diagonal", "weight", "scale", "octonion-times",
            "polynomial", "polynomial-const", "polynomial-rsub", "polynomial-div",
            "polynomial-times", "polynomial-plus", "form-product", "character-half",
            "character-2.7", "character-constant", "weyl-element",
        ],
    )
    def test_floats_are_rejected(self, build):
        with pytest.raises(TypeError):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Character({(0, 0, 0, 0): Fraction(3, 2)}),
            lambda: Character.constant(Fraction(1, 3)),
        ],
        ids=["character", "character-constant"],
    )
    def test_character_coefficients_must_be_integers(self, build):
        with pytest.raises(ValueError, match="character coefficients must be integers"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: x_character(1) * 2,
            lambda: x_character(1) + 1,
            lambda: x_character(1) - 1,
            lambda: 2 * x_character(1),
        ],
        ids=["times", "plus", "minus", "rtimes"],
    )
    def test_character_arithmetic_needs_a_character(self, build):
        # a scalar multiple is a product with Character.constant
        with pytest.raises(TypeError, match="unsupported operand"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: B_RING.var("b1") ** 0.5,
            lambda: B_RING.var("b1") ** Fraction(1),
            lambda: x_character(1) ** 0.5,
            lambda: x_character(1) ** Fraction(2),
        ],
        ids=["polynomial-float", "polynomial-fraction", "character-float", "character-fraction"],
    )
    def test_exponents_must_be_integers(self, build):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            build()

    def test_integral_fractions_and_bools_stay_accepted(self):
        two = Fraction(4, 2)
        assert Character({(0, 0, 0, 0): two}) == Character.constant(2) == Character.constant(True) * Character.constant(two)
        assert B_RING.const(two) == B_RING.const(2) == B_RING.const(True) * two
        assert FormProduct(two, ()).scalar == 2
        assert WeylElement([[two, 0, 0, 0], [0, True, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]).doubled[0][0] == 4
        assert B_RING.var("b1") ** True == B_RING.var("b1")
        assert x_character(1) ** True == x_character(1)


class TestOctonionAgainstFractions:
    def test_product_conjugate_and_norm(self):
        rng = random.Random(62)
        for _ in range(60):
            rx, ry = random_fractions(rng, 8), random_fractions(rng, 8)
            x, y = Octonion(rx), Octonion(ry)
            assert (x * y).coords == ref_oct_mul(rx, ry)
            assert x._doubling_mul(y) == x * y
            assert x.conjugate().coords == ref_conj(rx)
            assert x.norm_squared() == ref_norm_squared(rx)
            assert_lowest_terms(x * y)


class TestJordanAgainstFractions:
    def test_product_trace_form_and_determinant(self):
        rng = random.Random(63)
        for _ in range(6):
            rx, ry = random_jordan_coords(rng), random_jordan_coords(rng)
            x, y = jordan_from_coordinates(rx), jordan_from_coordinates(ry)
            assert x.jordan(y).coords == ref_jordan(rx, ry)
            assert x.trace() == ref_trace(rx)
            assert x.trace_form(y) == ref_trace_form(rx, ry)
            assert jordan_determinant(x) == ref_determinant(rx)

    def test_slot_views_and_text_form(self):
        rng = random.Random(64)
        for _ in range(30):
            rx = random_jordan_coords(rng)
            x = jordan_from_coordinates(rx)
            assert (x.x1, x.x2, x.x3) == rx[:3]
            assert (x.r.coords, x.p.coords, x.q.coords) == (rx[3:11], rx[11:19], rx[19:27])
            assert JordanMatrix(*rx[:3], p=x.p, q=x.q, r=x.r) == x
            assert format_jordan(x) == ref_format(rx)


class TestWeightAgainstFractions:
    def test_dot_and_rho_coordinates(self):
        rng = random.Random(65)
        for _ in range(40):
            rx, ry = random_fractions(rng, 4), random_fractions(rng, 4)
            x, y = Weight(rx), Weight(ry)
            assert x.dot(y) == sum(a * b for a, b in zip(rx, ry))
            w1, w2, w3, w4 = rx
            assert x.rho_coordinates() == (w1 - w2, w2 - w3, w3 - w4, w3 + w4)

    def test_doubled_key_round_trip(self):
        rng = random.Random(66)
        for _ in range(60):
            parity = rng.randint(0, 1)
            key = tuple(2 * rng.randint(-4, 4) + parity for _ in range(4))
            w = Weight.from_doubled_key(key)
            assert w.coords == tuple(Fraction(k, 2) for k in key)
            assert w.is_lattice()
            assert w.doubled_key() == key == ref_doubled_key(w.coords)
            assert Weight(w.coords) == w

    @pytest.mark.parametrize(
        "coords",
        [
            (Fraction(1, 3), 2, -1, Fraction(5, 7)),
            (Fraction(1, 2), 1, 0, 0),
            (Fraction(1, 4), 0, 0, 0),
            (Fraction(1, 2), Fraction(1, 2), Fraction(3, 2), 1),
        ],
    )
    def test_off_lattice_weights_have_no_doubled_key(self, coords):
        w = Weight(coords)
        assert not w.is_lattice()
        with pytest.raises(ValueError):
            ref_doubled_key(w.coords)
        with pytest.raises(ValueError):
            w.doubled_key()
