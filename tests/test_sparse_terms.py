"""Differential tests: the shared sparse-term kernels against the code they
replaced.

``Polynomial`` and ``Character`` wrap the term kernels of ``flagoct.poly``,
and exact division, character division and Groebner normal forms share one
heap-based reduction loop.  The references below are the per-class
arithmetic, the single-divisor ``divide_terms`` (with its integral mode) and
the rescan-and-copy ``normal_form`` that the package used before; each test
compares the two on seeded inputs.
"""

import random
from fractions import Fraction
from operator import add, sub

import pytest

from flagoct import groebner
from flagoct.groebner import buchberger, normal_form
from flagoct.ktheory import X_RING, Character, expand_x_polynomial, x_character
from flagoct.poly import (
    PolyRing,
    Polynomial,
    divisor,
    exact_divide,
    grevlex_key,
    reduce_terms,
)
from flagoct.suites import run_suite

R3 = PolyRing.make(("a", "b", "c"), (1, 2, 1))


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


def ref_poly_mul(p, q):
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return Polynomial(p.ring, out)


def ref_poly_pow(p, n):
    out = p.ring.one()
    for _ in range(n):
        out = ref_poly_mul(out, p)
    return out


def ref_poly_str(p):
    if not p.terms:
        return "0"
    parts = []
    for e in sorted(p.terms, key=grevlex_key, reverse=True):
        c = p.terms[e]
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
    """Term by term: the coefficient times a product of image powers."""
    out = target.zero()
    for e, c in p.terms.items():
        term = target.const(c)
        for name, k in zip(p.ring.names, e):
            term = ref_poly_mul(term, ref_poly_pow(images[name], k))
        out = ref_poly_add(out, term)
    return out


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
    for (a0, a1, a2, a3), c1 in f.terms.items():
        for (b0, b1, b2, b3), c2 in g.terms.items():
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
    if not f.terms:
        return "0"
    parts = []
    for key in sorted(f.terms, reverse=True):
        coeff = f.terms[key]
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
            got = reduce_terms(f, [divisor(g, lead)])
            assert (got if got is None else got[0]) == expected
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
