"""Differential tests: the shared sparse-term kernels against the code they
replaced.

``Polynomial`` and ``Character`` wrap the term kernels of ``flagoct.poly``,
and exact division, character division and Groebner normal forms share one
heap-based reduction loop.  ``Polynomial.substitute`` runs its ring map over
the integers.  The references below are the per-class ``Fraction``
arithmetic and ring map, the single-divisor ``divide_terms`` (with its
integral mode), the rescan-and-copy ``normal_form`` and the Weyl-invariance
tests built on the ``Fraction`` ring map that the package used before; each
test compares the two on seeded inputs.

The kernels run on packed int keys (``Packing``).  The last classes check
the packing itself: key order against ``grevlex_key``, the lexicographic
tuple order that characters print and sign by, exponents at the edge of the
fields (refused, never wrapped), and the bias of character keys.  ``terms``
is a view built on each access, so the references read it once per loop.
"""

import functools
import random
from fractions import Fraction
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagoct import groebner
from flagoct.cohomology import B_RING
from flagoct.gkm import (
    RHO_RING,
    cached_realization,
    generator_substitutions,
    is_w_invariant,
    l_polynomials,
    realized_label,
)
from flagoct.groebner import buchberger, normal_form
from flagoct.ktheory import CHAR_PACKING, X_RING, Character, char_quotient, expand_x_polynomial, x_character
from flagoct.parsing import CharacterContext, ParseError, PolynomialContext, parse_and_evaluate
from flagoct.poly import (
    Packing,
    PolyRing,
    Polynomial,
    ResourceLimitError,
    divisor,
    exact_divide,
    grevlex_key,
    map_terms,
    mul_terms,
    pow_terms,
    reduce_terms,
)
from flagoct.suites import run_suite

R3 = PolyRing.make(("a", "b", "c"), (1, 2, 1))
P3 = R3.packing


def packed(terms, packing=P3):
    return {packing.pack(e): c for e, c in terms.items()}


def unpacked(terms, packing=P3):
    return {packing.unpack(k): c for k, c in terms.items()}


# -- references: Polynomial arithmetic --------------------------------------------


def ref_poly_add(p, q):
    out = dict(p.terms)
    for e, c in q.terms.items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return Polynomial(p.ring, out)


def ref_poly_neg(p):
    return Polynomial(p.ring, {e: -c for e, c in p.terms.items()})


def ref_terms_mul(lhs, rhs):
    """The product of two {exponent tuple: Fraction} dicts."""
    out = {}
    for e1, c1 in lhs.items():
        for e2, c2 in rhs.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def ref_poly_mul(p, q):
    return Polynomial(p.ring, ref_terms_mul(p.terms, q.terms))


def ref_poly_pow(p, n):
    out = p.ring.one()
    for _ in range(n):
        out = ref_poly_mul(out, p)
    return out


def ref_poly_str(p):
    terms = p.terms
    if not terms:
        return "0"
    parts = []
    for e in sorted(terms, key=grevlex_key, reverse=True):
        c = terms[e]
        factors = []
        for name, k in zip(p.ring.names, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        mono = "*".join(factors)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        parts.append(("-" if c < 0 else "+", body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def ref_substitute(p, images, target):
    """Term by term: the coefficient times a product of image powers, each
    power by repeated multiplication, on {exponent tuple: Fraction} dicts."""
    image_terms = {name: images[name].terms for name in p.ring.names}
    one = (0,) * len(target.names)
    out = {}
    for e, c in p.terms.items():
        term = {one: Fraction(c)}
        for name, k in zip(p.ring.names, e):
            for _ in range(k):
                term = ref_terms_mul(term, image_terms[name])
        for e2, c2 in term.items():
            s = out.get(e2, Fraction(0)) + c2
            if s:
                out[e2] = s
            else:
                out.pop(e2, None)
    return Polynomial(target, out)


def ref_is_w_invariant(p):
    return all(ref_substitute(p, sub, RHO_RING) == p for sub in generator_substitutions())


# -- references: Character arithmetic ---------------------------------------------


def ref_char_add(f, g):
    out = dict(f.terms)
    for k, c in g.terms.items():
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return Character(out)


def ref_char_neg(f):
    return Character({k: -c for k, c in f.terms.items()})


def ref_char_mul(f, g):
    out = {}
    rhs = g.terms  # a view built on each access
    for (a0, a1, a2, a3), c1 in f.terms.items():
        for (b0, b1, b2, b3), c2 in rhs.items():
            k = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
            s = out.get(k, 0) + c1 * c2
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return Character(out)


def ref_char_pow(f, n):
    out = Character.one()
    for _ in range(n):
        out = ref_char_mul(out, f)
    return out


def ref_monomial_text(key):
    if all(k % 2 == 0 for k in key):
        exps = [k // 2 for k in key] + [0]
    else:
        exps = [(k - 1) // 2 for k in key] + [1]
    factors = []
    for i, e in enumerate(exps, start=1):
        if e == 1:
            factors.append(f"y{i}")
        elif e != 0:
            factors.append(f"y{i}^{e}")
    return "*".join(factors) if factors else "1"


def ref_char_str(f):
    terms = f.terms
    if not terms:
        return "0"
    parts = []
    for key in sorted(terms, reverse=True):
        coeff = terms[key]
        body = ref_monomial_text(key)
        if body == "1":
            body = str(abs(coeff))
        elif abs(coeff) != 1:
            body = f"{abs(coeff)}*{body}"
        parts.append(("-" if coeff < 0 else "+", body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def ref_expand_x_polynomial(p):
    out = Character.zero()
    for e, c in p.terms.items():
        term = Character.constant(c.numerator)
        for i, k in enumerate(e):
            term = ref_char_mul(term, ref_char_pow(x_character(i + 1), k))
        out = ref_char_add(out, term)
    return out


# -- references: division and normal forms ----------------------------------------


def ref_divide_terms(f, g, g_lead, integral=False):
    """Single-divisor division by leading terms; with ``integral`` an inexact
    integer quotient coefficient is None as well."""
    g_lc = g[g_lead]
    rem = dict(f)
    quotient = {}
    while rem:
        e = max(rem, key=grevlex_key)
        lead = rem.pop(e)
        diff = tuple(map(sub, e, g_lead))
        if any(d < 0 for d in diff):
            return None
        if integral:
            c, r = divmod(lead, g_lc)
            if r:
                return None
        else:
            c = lead / g_lc
        quotient[diff] = c
        for eg, cg in g.items():
            if eg == g_lead:
                continue
            m = tuple(map(add, diff, eg))
            s = rem.get(m, 0) - c * cg
            if s:
                rem[m] = s
            else:
                rem.pop(m, None)
    return quotient


def ref_normal_form(f, basis):
    """Rescan the leading term and rebuild the rest at every step."""
    basis = [g for g in basis if not g.is_zero()]
    ring = f.ring
    leads = [(g.leading_exponents(), g.leading_coefficient(), g) for g in basis]
    remainder = {}
    work = f
    while work.terms:
        e = work.leading_exponents()
        c = work.terms[e]
        for ge, gc, g in leads:
            if all(x <= y for x, y in zip(ge, e)):
                shift = tuple(x - y for x, y in zip(e, ge))
                work = work - Polynomial(ring, {shift: c / gc}) * g
                break
        else:
            remainder[e] = c
            work = work - Polynomial(ring, {e: c})
    return Polynomial(ring, remainder)


# -- seeded inputs ------------------------------------------------------------------


def random_poly(rng, ring=R3, max_terms=5, max_exp=3, fractions=True):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        num = rng.randint(-5, 5)
        terms[e] = Fraction(num, rng.randint(1, 4)) if fractions else Fraction(num)
    return Polynomial(ring, terms)


def random_character(rng, max_terms=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        parity = rng.randint(0, 1)
        terms[tuple(2 * rng.randint(-3, 3) + parity for _ in range(4))] = rng.randint(-4, 4)
    return Character(terms)


def random_int_terms(rng, nvars=3, max_terms=5):
    return {
        tuple(rng.randint(0, 3) for _ in range(nvars)): rng.choice((-3, -2, -1, 1, 2, 3))
        for _ in range(rng.randint(1, max_terms))
    }


# -- the tests ----------------------------------------------------------------------


class TestPolynomialArithmetic:
    def test_sum_difference_product_power_and_text(self):
        rng = random.Random(71)
        for _ in range(200):
            p, q = random_poly(rng), random_poly(rng)
            assert p + q == ref_poly_add(p, q)
            assert -p == ref_poly_neg(p)
            assert p - q == ref_poly_add(p, ref_poly_neg(q))
            assert p * q == ref_poly_mul(p, q)
            n = rng.randint(0, 4)
            assert p**n == ref_poly_pow(p, n)
            assert str(p * q) == ref_poly_str(ref_poly_mul(p, q))
            assert str(p - q) == ref_poly_str(ref_poly_add(p, ref_poly_neg(q)))

    def test_results_hold_fraction_coefficients(self):
        rng = random.Random(72)
        for _ in range(50):
            p, q = random_poly(rng), random_poly(rng)
            for r in (p + q, p - q, p * q, p**2, p * 3):
                assert all(type(c) is Fraction and c for c in r.terms.values())

    def test_substitute(self):
        rng = random.Random(73)
        target = PolyRing.make(("u", "v"))
        for _ in range(60):
            p = random_poly(rng)
            images = {
                name: random_poly(rng, target, max_terms=3, max_exp=2) for name in R3.names
            }
            if any(img.is_zero() for img in images.values()):
                continue
            assert p.substitute(images) == ref_substitute(p, images, target)


class TestCharacterArithmetic:
    def test_sum_difference_product_power_and_text(self):
        rng = random.Random(74)
        for _ in range(200):
            f, g = random_character(rng), random_character(rng)
            assert f + g == ref_char_add(f, g)
            assert -f == ref_char_neg(f)
            assert f - g == ref_char_add(f, ref_char_neg(g))
            assert f * g == ref_char_mul(f, g)
            n = rng.randint(0, 4)
            assert f**n == ref_char_pow(f, n)
            assert str(f * g) == ref_char_str(ref_char_mul(f, g))
            assert str(f - g) == ref_char_str(ref_char_add(f, ref_char_neg(g)))

    def test_results_hold_int_coefficients(self):
        rng = random.Random(75)
        for _ in range(50):
            f, g = random_character(rng), random_character(rng)
            for r in (f + g, f - g, f * g, f**3):
                assert all(type(c) is int and c for c in r.terms.values())

    def test_expand_x_polynomial(self):
        rng = random.Random(76)
        for _ in range(20):
            p = random_poly(rng, X_RING, max_terms=3, max_exp=2, fractions=False)
            assert expand_x_polynomial(p) == ref_expand_x_polynomial(p)


class TestSingleDivisor:
    @pytest.mark.parametrize("integral", [False, True])
    def test_matches_divide_terms(self, integral):
        rng = random.Random(77 + integral)
        outcomes = set()
        for _ in range(300):
            g = random_int_terms(rng)
            if not integral:
                g = {e: Fraction(c, rng.randint(1, 3)) for e, c in g.items()}
            f = dict(random_int_terms(rng))
            if rng.random() < 0.6:
                # a multiple of g, plus sometimes a stray term
                q = random_int_terms(rng, max_terms=3)
                f = {}
                for e1, c1 in q.items():
                    for e2, c2 in g.items():
                        e = tuple(map(add, e1, e2))
                        f[e] = f.get(e, 0) + c1 * c2
                f = {e: c for e, c in f.items() if c}
                if rng.random() < 0.3:
                    f[(3, 3, 3)] = f.get((3, 3, 3), 0) + 1
                f = {e: c for e, c in f.items() if c}
            lead = max(g, key=grevlex_key)
            expected = ref_divide_terms(f, g, lead, integral)
            got = reduce_terms(packed(f), [divisor(packed(g), P3.pack(lead))], P3)
            assert (got if got is None else unpacked(got[0])) == expected
            outcomes.add(expected is None)
        assert outcomes == {True, False}

    def test_exact_divide_of_polynomials(self):
        rng = random.Random(79)
        for _ in range(200):
            g = random_poly(rng)
            if g.is_zero():
                continue
            f = random_poly(rng) * g
            if rng.random() < 0.4:
                f = f + random_poly(rng, max_terms=1)
            expected = ref_divide_terms(f.terms, g.terms, g.leading_exponents())
            q = exact_divide(f, g)
            assert (q if q is None else q.terms) == expected


class TestNormalForm:
    def test_matches_rescanning_normal_form_on_plain_lists(self):
        # divisor lists that are not Groebner bases: the result depends on
        # the list order, and both loops take the first reducer
        rng = random.Random(80)
        for _ in range(300):
            f = random_poly(rng, max_terms=6)
            basis = [random_poly(rng, max_terms=3) for _ in range(rng.randint(0, 4))]
            assert normal_form(f, basis) == ref_normal_form(f, basis)

    def test_matches_on_every_call_buchberger_makes(self, monkeypatch):
        calls = []

        def checked(f, basis):
            got = normal_form(f, basis)
            assert got == ref_normal_form(f, basis)
            calls.append(len(basis))
            return got

        monkeypatch.setattr(groebner, "normal_form", checked)
        rng = random.Random(81)
        for _ in range(20):
            gens = [random_poly(rng, max_terms=3, max_exp=2) for _ in range(3)]
            if any(g.is_zero() for g in gens):
                continue
            gb = buchberger(gens)
            f = random_poly(rng, max_terms=6)
            assert gb.normal_form(f) == ref_normal_form(f, gb.elements)
        before = len(calls)
        assert run_suite("cohomology", seed=0).passed
        assert len(calls) > before


class TestIntegralRingMap:
    """``Polynomial.substitute`` over Z against the term-by-term ``Fraction``
    ring map."""

    @staticmethod
    def image(rng, target):
        """A zero, constant or general image, its denominators drawn apart."""
        kind = rng.random()
        if kind < 0.15:
            return target.zero()
        if kind < 0.3:
            return target.const(Fraction(rng.choice((-7, -2, 1, 3, 5)), rng.randint(1, 9)))
        return random_poly(rng, target, max_terms=3, max_exp=2)

    @pytest.mark.parametrize("nvars", [1, 2, 3, 5])
    def test_matches_the_fraction_ring_map(self, nvars):
        rng = random.Random(90 + nvars)
        target = PolyRing.make(tuple(f"u{i}" for i in range(nvars)))
        for _ in range(80):
            p = random_poly(rng, max_terms=6)
            images = {name: self.image(rng, target) for name in R3.names}
            got = p.substitute(images)
            assert got.ring == target
            assert got == ref_substitute(p, images, target)
            assert all(type(c) is Fraction and c for c in got.terms.values())

    def test_mixed_denominators_non_homogeneous_and_zero_images(self):
        a, b, c = R3.gens()
        u, v = PolyRing.make(("u", "v")).gens()
        p = Fraction(1, 6) * a**3 - Fraction(4, 9) * a * b + Fraction(5, 2) * c + Fraction(-3, 4)
        assert not p.is_homogeneous() and p.total_degree() == 3
        for images in (
            {"a": u / 3 + v / 5, "b": Fraction(7, 2) * u * v, "c": v / 4 - 1},
            {"a": u.ring.zero(), "b": u.ring.const(Fraction(2, 3)), "c": u / 7},
            {"a": u.ring.zero(), "b": u.ring.zero(), "c": u.ring.zero()},
            {"a": u.ring.const(3), "b": u.ring.const(Fraction(-1, 2)), "c": u.ring.one()},
        ):
            got = p.substitute(images)
            assert got == ref_substitute(p, images, u.ring)
            assert all(type(c) is Fraction and c for c in got.terms.values())

    def test_zero_polynomial_maps_to_the_targets_zero(self):
        target = PolyRing.make(("u",))
        images = {name: target.var("u") / 2 for name in R3.names}
        assert R3.zero().substitute(images) == target.zero()

    def test_invariance_matches_the_fraction_references(self):
        ls = l_polynomials()
        roots = [
            ls[i] + s * ls[j] for i in range(4) for j in range(i + 1, 4) for s in (1, -1)
        ]
        alternating = RHO_RING.one()
        for r in roots:
            alternating = alternating * r
        s1 = sum((l * l for l in ls), RHO_RING.zero())
        cases = {
            "invariant": [s1, s1 * s1 / 3 - 1, ls[0] * ls[1] * ls[2] * ls[3]]
            + [realized_label(k) for k in (1, 2, 3)],
            "alternating": [alternating, alternating * s1 / 5],
            "neither": [ls[0], ls[0] * ls[1] + Fraction(1, 2), alternating + s1],
        }
        rng = random.Random(95)
        cases["neither"] += [random_poly(rng, RHO_RING, max_terms=4, max_exp=2) for _ in range(8)]
        for kind, polys in cases.items():
            for p in polys:
                if p.is_zero():
                    continue
                assert is_w_invariant(p) == ref_is_w_invariant(p) == (kind == "invariant")


# -- the packed keys ------------------------------------------------------------------


# -- the packed keys ------------------------------------------------------------------


@functools.lru_cache(maxsize=None)  # built once per argument pair, not per draw
def exponent_vectors(nvars, limit):
    """Exponent vectors of ``nvars`` entries with total degree <= ``limit``."""
    return st.lists(
        st.integers(min_value=0, max_value=limit), min_size=nvars, max_size=nvars
    ).filter(lambda e: sum(e) <= limit).map(tuple)


LIMIT = Packing(1).limit
CHAR_BIAS = CHAR_PACKING.bias


def char_keys():
    """Doubled lattice keys over the whole biased field range."""
    return st.tuples(
        st.integers(min_value=-CHAR_BIAS, max_value=CHAR_BIAS - 1).map(lambda k: k - k % 2),
        st.lists(st.integers(min_value=-CHAR_BIAS // 2, max_value=CHAR_BIAS // 2 - 1), min_size=3, max_size=3),
        st.booleans(),
    ).map(lambda t: tuple(2 * k + t[2] if i else t[0] + t[2] for i, k in enumerate([0] + t[1])))


class TestPackedKeys:
    @pytest.mark.parametrize("nvars", [1, 2, 3, 4, 6])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_key_order_is_grevlex_and_keys_add(self, nvars, data):
        P = Packing(nvars)
        bound = st.sampled_from((3, 40, LIMIT))
        a = data.draw(exponent_vectors(nvars, data.draw(bound)))
        b = data.draw(exponent_vectors(nvars, data.draw(bound)))
        ka, kb = P.pack(a), P.pack(b)
        assert P.unpack(ka) == a and P.unpack(kb) == b
        assert (ka < kb) == (grevlex_key(a) < grevlex_key(b))
        assert (ka == kb) == (a == b)
        assert P.degree(ka) == sum(a)
        # divisibility is one subtraction against the guard bits
        assert ((ka - kb) & P.guard == 0) == all(x <= y for x, y in zip(a, b))
        if sum(a) + sum(b) <= LIMIT:
            assert ka + kb == P.pack(tuple(x + y for x, y in zip(a, b)))

    @given(st.lists(exponent_vectors(3, 60), min_size=1, max_size=12, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_leading_term_and_printed_order_are_grevlex(self, exponents):
        p = Polynomial(R3, {e: i + 1 for i, e in enumerate(exponents)})
        assert p.leading_exponents() == max(exponents, key=grevlex_key)
        assert [e for e, _ in p.sorted_terms()] == sorted(exponents, key=grevlex_key, reverse=True)
        assert str(p) == ref_poly_str(p)

    @given(st.lists(st.tuples(char_keys(), st.integers(-5, 5)), max_size=10))
    @settings(max_examples=150, deadline=None)
    def test_character_keys_go_through_the_bias_in_lex_order(self, items):
        terms = {}
        for key, coeff in items:
            terms[key] = terms.get(key, 0) + coeff
        f = Character(terms)
        expected = {k: c for k, c in terms.items() if c}
        assert f.terms == expected
        assert all(CHAR_PACKING.unpack(k) in expected for k in f.packed)
        # the lexicographic sites read tuple order, not key order
        assert [(w.doubled_key(), c) for w, c in f.weights()] == sorted(expected.items())
        assert str(f) == ref_char_str(f)
        if expected:
            assert f.lex_max_key() == max(expected)

    def test_negative_keys_multiply_through_one_bias(self):
        rng = random.Random(96)
        for _ in range(100):
            f, g = random_character(rng), random_character(rng)
            assert f * g == ref_char_mul(f, g)
        f = Character({(-3, -1, 1, -5): 2, (2, 0, -2, 4): -1})
        g = Character({(-1, -1, -1, -1): 3})
        assert (f * g).terms == {(-4, -2, 0, -6): 6, (1, -1, -3, 3): -3}
        assert CHAR_PACKING.pack((0, 0, 0, 0)) == CHAR_PACKING.zero != 0

    def test_realized_label_signs_read_lexicographic_tuple_order(self):
        real = cached_realization()
        for p, sign in zip(real.expanded, real.canonical_signs):
            terms = p.terms
            assert sign == (1 if terms[max(terms)] > 0 else -1)
        # the view's keys are tuples, so max() over them is lexicographic,
        # whatever the order of the packed keys
        a, _, c = R3.gens()
        p = 2 * a**2 - 3 * a * c**5
        assert max(p.terms) == (2, 0, 0) != p.leading_exponents() == (1, 0, 5)
        assert p.terms[max(p.terms)] == 2


class TestFieldBoundary:
    def test_polynomial_exponents_up_to_the_limit(self):
        x, y = PolyRing.make(("x", "y")).gens()
        top = x**LIMIT
        assert top.leading_exponents() == (LIMIT, 0)
        assert str(top) == f"x^{LIMIT}"
        assert (x ** (LIMIT - 1) * y).terms == {(LIMIT - 1, 1): 1}
        assert exact_divide(top - y**LIMIT, x - y) is not None
        for overflow in (lambda: top * x, lambda: top * y, lambda: x ** (LIMIT + 1),
                         lambda: x ** (LIMIT - 1) * (y**2 + 1), lambda: (x * y) ** (LIMIT // 2 + 1)):
            with pytest.raises(ResourceLimitError):
                overflow()
        with pytest.raises(ResourceLimitError):
            Polynomial(x.ring, {(LIMIT, 1): 1})
        with pytest.raises(ValueError):
            Polynomial(x.ring, {(-1, 0): 1})

    def test_a_product_never_wraps(self):
        # a product whose leading degrees overflow is refused before any
        # key is formed, even where lower terms would fit
        x, y = PolyRing.make(("x", "y")).gens()
        f = x ** (LIMIT - 3) + 1
        g = y**4 + 1
        with pytest.raises(ResourceLimitError):
            f * g
        assert (f * (y**3 + 1)).terms[(LIMIT - 3, 3)] == 1

    def test_character_keys_at_both_ends_of_the_bias(self):
        lo, hi = -CHAR_BIAS, CHAR_BIAS - 2
        f = Character({(lo, lo, lo, lo): 1, (hi, hi, hi, hi): -1})
        assert f.terms == {(lo, lo, lo, lo): 1, (hi, hi, hi, hi): -1}
        for bad in ((lo - 2, 0, 0, 0), (0, 0, 0, hi + 2)):
            with pytest.raises(ResourceLimitError):
                Character({bad: 1})
        step = Character({(2, 0, 0, 0): 1})
        down = Character({(-2, 0, 0, 0): 1})
        assert (Character({(hi, 0, 0, 0): 1}) * down).terms == {(hi - 2, 0, 0, 0): 1}
        with pytest.raises(ResourceLimitError):
            Character({(hi, 0, 0, 0): 1}) * step
        with pytest.raises(ResourceLimitError):
            Character({(lo, 0, 0, 0): 1}) * down
        # post-hoc field checks: the cancelled overflowing terms are refused too
        with pytest.raises(ResourceLimitError):
            Character({(hi, 0, 0, 0): 1, (0, 0, 0, 0): 1}) * Character({(2, 0, 0, 0): 1, (-2, 0, 0, 0): -1})

    def test_parser_refuses_an_overflowing_product_or_power_with_a_position(self):
        ctx = PolynomialContext(B_RING)
        for text, op in (("b1 + (b1^1000)^33", "^33"), ("(b2^1000)^32*b2^768", "*b2^768")):
            with pytest.raises(ParseError) as err:
                parse_and_evaluate(text, ctx)
            assert err.value.position == text.index(op)
        with pytest.raises(ParseError) as err:
            parse_and_evaluate("(y1^1000)^9", CharacterContext())
        assert err.value.position == 9
        assert "16-bit fields" in str(err.value)


class TestPackedKernelsAgainstReferences:
    @pytest.mark.parametrize("bias", [0, CHAR_BIAS])
    def test_mul_and_pow_terms(self, bias):
        P = Packing(4, bias=bias)
        rng = random.Random(97 + bias)
        low = -3 if bias else 0

        def draw():
            return {
                tuple(rng.randint(low, 3) for _ in range(4)): rng.choice((-2, -1, 1, 3))
                for _ in range(rng.randint(0, 6))
            }

        for _ in range(150):
            f, g = draw(), draw()
            want = {}
            for e1, c1 in f.items():
                for e2, c2 in g.items():
                    e = tuple(map(add, e1, e2))
                    want[e] = want.get(e, 0) + c1 * c2
            want = {e: c for e, c in want.items() if c}
            assert unpacked(mul_terms(packed(f, P), packed(g, P), P), P) == want
            n = rng.randint(0, 3)
            power = {(0,) * 4: 1}
            for _ in range(n):
                step = {}
                for e1, c1 in power.items():
                    for e2, c2 in f.items():
                        e = tuple(map(add, e1, e2))
                        step[e] = step.get(e, 0) + c1 * c2
                power = {e: c for e, c in step.items() if c}
            assert unpacked(pow_terms(packed(f, P), n, P), P) == power

    def test_exact_divide_over_z_matches_division_over_q(self):
        # contents and denominators on both sides: the primitive divisor
        # makes the integer reduction decide what the Fraction one decides
        rng = random.Random(98)
        hits = 0
        for _ in range(200):
            g = random_poly(rng) * Fraction(rng.choice((2, 6, -4)), rng.randint(1, 5))
            if g.is_zero():
                continue
            f = random_poly(rng) * g
            if rng.random() < 0.4:
                f = f + random_poly(rng, max_terms=1)
            expected = ref_divide_terms(f.terms, g.terms, g.leading_exponents())
            q = exact_divide(f, g)
            assert (q if q is None else q.terms) == expected
            hits += q is not None
        assert 0 < hits < 200

    def test_char_quotient_matches_the_polynomial_reference(self):
        rng = random.Random(99)
        found = set()
        for _ in range(120):
            d = random_character(rng, max_terms=3)
            if d.is_zero():
                continue
            q = random_character(rng, max_terms=4)
            f = d * q
            if rng.random() < 0.3:
                f = f + random_character(rng, max_terms=1)
            got = char_quotient(d, f)
            want = ref_char_quotient(d, f)
            assert got == want
            found.add(got is None)
        assert found == {True, False}


def ref_char_quotient(d, f):
    """f/d by shifting both into Q[t1..t4] and dividing with Fraction
    polynomials on tuple keys."""
    if f.is_zero():
        return Character.zero()
    ring = PolyRing.make(("t1", "t2", "t3", "t4"))

    def shifted(c):
        shift = tuple(min(k[i] for k in c.terms) for i in range(4))
        return {tuple(map(sub, k, shift)): v for k, v in c.terms.items()}, shift

    pf, sf = shifted(f)
    pd, sd = shifted(d)
    lead = max(pd, key=grevlex_key)
    q = ref_divide_terms({e: Fraction(c) for e, c in pf.items()}, {e: Fraction(c) for e, c in pd.items()}, lead)
    if q is None or any(c.denominator != 1 for c in q.values()):
        return None
    out = {}
    for e, c in q.items():
        key = tuple(x + a - b for x, a, b in zip(e, sf, sd))
        if len({k % 2 for k in key}) != 1:
            return None
        out[key] = int(c)
    return Character(out)


def stepwise_map_terms(f, source, images, target):
    """The ring map factor by factor, as ``map_terms`` ran before one-term
    images became key shifts: each power by repeated multiplication, each
    term a product of powers in variable order, every step checked by
    ``mul_terms``."""
    one = {target.zero: 1}
    powers = [[one, g] for g in images]
    out = {}
    for e, c in f.items():
        term = one
        for k, cache, g in zip(source.unpack(e), powers, images):
            if k:
                while len(cache) <= k:
                    cache.append(mul_terms(cache[-1], g, target))
                term = cache[k] if term is one else mul_terms(term, cache[k], target)
        for m, v in term.items():
            out[m] = out.get(m, 0) + c * v
    return {m: c for m, c in out.items() if c}


def map_outcome(fn, f, source, images, target):
    """The image, or the type and text of the error."""
    try:
        return fn(f, source, images, target)
    except ResourceLimitError as exc:
        return type(exc), str(exc)


class TestOneTermImages:
    """``map_terms`` folds one-term images into key shifts; values and
    refusals equal the factor-by-factor ring map."""

    S3, U2 = Packing(3), Packing(2)

    def same(self, exponents, images, source=S3, target=U2, coeff=1):
        f = {source.pack(e): coeff for e in exponents}
        images = [{target.pack(k): c for k, c in g.items()} for g in images]
        got = map_outcome(map_terms, f, source, images, target)
        assert got == map_outcome(stepwise_map_terms, f, source, images, target)
        return got

    @pytest.mark.parametrize(
        "exponents, fits",
        [
            ([(LIMIT, 0, 0)], True),
            ([(LIMIT - 3, 1, 0)], True),
            ([(LIMIT - 2, 1, 0)], False),
            ([(0, 10922, 1)], True),
            ([(0, 10922, 2)], False),
            ([(LIMIT - 1, 0, 1)], True),
            ([(LIMIT - 4, 1, 1), (2, 0, 0)], True),
            ([(2, 0, 0), (LIMIT - 3, 1, 1)], False),
        ],
    )
    def test_degree_limit_of_an_unbiased_target(self, exponents, fits):
        # x -> u, y -> -u*v^2 (two one-term images), z -> u + v; total
        # degrees of LIMIT and LIMIT + 1
        images = [{(1, 0): 1}, {(1, 2): -1}, {(1, 0): 1, (0, 1): 1}]
        got = self.same(exponents, images)
        assert (type(got) is dict) == fits
        if not fits:
            assert got == (ResourceLimitError, f"a total degree past {LIMIT} does not fit 16-bit fields")

    def test_multi_term_factors_before_and_after_the_shifts(self):
        images = [{(1, 0): 2, (0, 1): -1}, {(0, 1): -1}, {(0, 0): 3}]
        for exponents in ([(1, LIMIT - 1, 0)], [(2, 40, 7), (0, 3, 1), (1, 0, 0)], [(0, 0, 5), (3, 0, 0)]):
            assert type(self.same(exponents, images, coeff=-2)) is dict
        # a constant image is a shift by 0 at any power
        assert self.same([(0, 0, LIMIT)], [{(1, 0): 1}, {(0, 1): 1}, {(0, 0): -1}]) == {0: -1}

    def test_zero_images_keep_every_step(self):
        for images in ([{}, {(1, 1): 1}, {(1, 0): 1}], [{(1, 1): 1}, {}, {(2, 0): 1, (0, 1): 1}]):
            for exponents in ([(1, LIMIT - 1, 0)], [(LIMIT - 1, 1, 0)], [(16384, 0, 1)], [(3, 2, 1)]):
                self.same(exponents, images)

    @pytest.mark.parametrize(
        "exponents, fits",
        [
            # doubled y1 coordinates of 16 382, 16 384, -16 384 and -16 386
            ([(8191, 0)], True),
            ([(8192, 0)], False),
            ([(0, 8192)], True),
            ([(0, 8193)], False),
            # past the field at the first step, inside it at the end
            ([(8192, 8192)], False),
            ([(1, 8192)], True),
        ],
    )
    def test_field_limit_of_the_character_packing(self, exponents, fits):
        # a -> y1, b -> y1^-1 (doubled keys (2,0,0,0) and (-2,0,0,0))
        images = [{(2, 0, 0, 0): 1}, {(-2, 0, 0, 0): 1}]
        got = self.same(exponents, images, source=self.U2, target=CHAR_PACKING)
        assert (type(got) is dict) == fits
        if not fits:
            assert got == (ResourceLimitError, "a result exponent does not fit 16-bit fields")

    def test_seeded_ring_maps(self):
        rng = random.Random(100)
        refused = 0
        for _ in range(200):
            source, target = Packing(rng.randint(1, 4)), Packing(rng.randint(1, 3))
            images = []
            for _ in range(source.nvars):
                kind, n = rng.random(), target.nvars
                if kind < 0.1:
                    images.append({})
                elif kind < 0.6:
                    top = rng.choice((2, 30, 3000))
                    images.append({tuple(rng.randint(0, top) for _ in range(n)): rng.choice((-1, 1))})
                else:
                    images.append({tuple(rng.randint(0, 2) for _ in range(n)): rng.choice((-2, 1, 3)) for _ in range(3)})
            big = rng.choice((3, 20, 12000))
            exponents = [
                tuple(rng.randint(0, big) if len(g) < 2 else rng.randint(0, 3) for g in images)
                for _ in range(rng.randint(1, 4))
            ]
            exponents = [e for e in exponents if sum(e) <= LIMIT]
            refused += type(self.same(exponents, images, source=source, target=target)) is tuple
        assert 0 < refused < 200
