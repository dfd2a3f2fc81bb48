"""Expression grammar: tokenizing, parsing, printing, evaluation.

The syntax-tree evaluator and the character-loop tokenizer that the parser
replaced live on here as references (``reference_evaluate``,
``reference_tokenize``), with the syntax tree itself: ``parse`` runs the
package's parser with a builder that makes tree nodes, and ``to_text``
prints a tree back as grammar-conforming text.
"""

import contextlib
import functools
import io
import json
import random
import sys
import time
import types
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, log10
from pathlib import Path
from typing import Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagoct.cli import _context_for, main
from flagoct.cohomology import B_RING, E_RING
from flagoct.gkm import RHO_RING, RINGS
from flagoct.ktheory import CHAR_PACKING, Character, x_character, y
from flagoct.weyl import SIGMA3_NAMES, omega
from flagoct import poly
from flagoct.poly import PolyRing, Polynomial, ResourceLimitError, RingMismatchError
from flagoct.parsing import (
    CharacterContext,
    MAX_EXPONENT,
    MAX_KEPT,
    MAX_KEPT_BYTES,
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    MAX_POWER_DIGITS,
    MAX_POWER_TERMS,
    MAX_PRODUCT_PAIRS,
    MAX_RESULT_DIGITS,
    MAX_TEXT_LENGTH,
    MAX_WORK,
    ParseError,
    PolynomialContext,
    parse_and_evaluate,
    tokenize,
    _Parser,
    _bits,
    _digits,
    _over_budget,
    _power_pairs,
)


def y_inverse(j):
    """The lattice generator e^{-omega_j}."""
    return Character.monomial(-omega(j))


# -- the syntax tree -----------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Fraction
    pos: int


@dataclass(frozen=True)
class Var:
    name: str
    pos: int


@dataclass(frozen=True)
class Neg:
    operand: "Node"
    pos: int


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int
    pos: int


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*'
    left: "Node"
    right: "Node"
    pos: int


Node = Union[Num, Var, Neg, Pow, BinOp]


class _TreeBuilder:
    """Builds the syntax tree of a text."""

    def constant(self, num: int, den: int, pos: int) -> Node:
        return Num(Fraction(num, den), pos)

    def variable(self, name: str, pos: int) -> Node:
        return Var(name, pos)

    def neg(self, value: Node, pos: int) -> Node:
        return Neg(value, pos)

    def power(self, value: Node, n: int, pos: int) -> Node:
        return Pow(value, n, pos)

    def add(self, left: Node, right: Node, pos: int) -> Node:
        return BinOp("+", left, right, pos)

    def sub(self, left: Node, right: Node, pos: int) -> Node:
        return BinOp("-", left, right, pos)

    def mul(self, left: Node, right: Node, pos: int) -> Node:
        return BinOp("*", left, right, pos)

    def holds(self, text: str) -> bool:
        return False

    def recall(self, text: str, room: int) -> None:
        return None  # a group's tree is built from its own tokens

    def keep(self, text: str, value: Node) -> None:
        pass



def parse(text: str) -> Node:
    return _Parser(text, _TreeBuilder()).parse()


# -- printing (round-trip) ----------------------------------------------------------


def _precedence(node: Node) -> int:
    if isinstance(node, BinOp):
        return 1 if node.op in ("+", "-") else 2
    if isinstance(node, Neg):
        return 1
    if isinstance(node, Pow):
        return 3
    if isinstance(node, Num) and node.value < 0:
        return 1
    return 4


def to_text(node: Node) -> str:
    """Render a tree back to grammar-conforming text."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Neg):
        inner = to_text(node.operand)
        # products must be parenthesized: "-a*b" would re-parse with the
        # minus attached to the first factor only
        if _precedence(node.operand) < 3:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Pow):
        base = to_text(node.base)
        if _precedence(node.base) < 4 or isinstance(node.base, Pow):
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, BinOp):
        left = to_text(node.left)
        right = to_text(node.right)
        if node.op == "*":
            if _precedence(node.left) < 2:
                left = f"({left})"
            if _precedence(node.right) < 3:
                right = f"({right})"
            return f"{left}*{right}"
        if _precedence(node.right) <= 1:
            right = f"({right})"
        return f"{left} {node.op} {right}"
    raise TypeError(f"not a syntax node: {node!r}")


# -- references ----------------------------------------------------------------------


def reference_tokenize(text):
    """The character-loop tokenizer, with numbers read as decimal digits."""
    ops = {"+", "-", "*", "^", "/", "(", ")"}
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("number", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        if ch in ops:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


class ReferencePolynomialContext:
    def __init__(self, ring, aliases=None):
        self.ring = ring
        self.aliases = aliases or {}

    def constant(self, value, pos):
        return self.ring.const(value)

    def variable(self, name, pos):
        if name in self.ring.names:
            return self.ring.var(name)
        if name in self.aliases:
            return self.aliases[name]
        known = ", ".join(list(self.ring.names) + sorted(self.aliases))
        raise ParseError(f"unknown variable {name!r} (known: {known})", pos)

    def power(self, value, n, pos):
        if n < 0:
            raise ParseError("negative exponents are not allowed in this ring", pos)
        return value**n


class ReferenceCharacterContext:
    def constant(self, value, pos):
        if value.denominator != 1:
            raise ParseError("character coefficients must be integers", pos)
        return Character.constant(value.numerator)

    def variable(self, name, pos):
        if len(name) == 2 and name[0] == "y" and name[1] in "12345":
            return y(int(name[1]))
        raise ParseError(f"unknown variable {name!r} (known: y1..y5)", pos)

    def power(self, value, n, pos):
        if n >= 0:
            return value**n
        inv = reference_invert_character(value)
        if inv is None:
            raise ParseError(
                "only unit monomials can be raised to negative powers", pos
            )
        return inv ** (-n)


def reference_invert_character(value):
    if len(value.packed) != 1:
        return None
    ((key, coeff),) = value.terms.items()
    if coeff not in (1, -1):
        return None
    return Character({tuple(-k for k in key): coeff})


def reference_evaluate(node, context):
    """Evaluate a syntax tree by walking it, with Polynomial/Character
    arithmetic and the power projection checked before each power."""
    spine = []
    while isinstance(node, BinOp):
        spine.append(node)
        node = node.left
    if isinstance(node, Num):
        value = context.constant(node.value, node.pos)
    elif isinstance(node, Var):
        value = context.variable(node.name, node.pos)
    elif isinstance(node, Neg):
        value = -reference_evaluate(node.operand, context)
    elif isinstance(node, Pow):
        base = reference_evaluate(node.base, context)
        terms, k = len(base.terms), abs(node.exponent)
        if terms > 1 and comb(terms + k - 1, min(k, terms - 1)) > MAX_POWER_TERMS:
            raise ParseError(
                f"a {terms}-term base to the power {k} may have more than "
                f"{MAX_POWER_TERMS} terms",
                node.pos,
            )
        value = context.power(base, node.exponent, node.pos)
    else:
        raise TypeError(f"not a syntax node: {node!r}")
    for op in reversed(spine):
        right = reference_evaluate(op.right, context)
        if op.op == "+":
            value = value + right
        elif op.op == "-":
            value = value - right
        else:
            value = value * right
    return value


def outcome(fn, *args):
    """The value of fn(*args), or the message and position of its ParseError."""
    try:
        return fn(*args)
    except ParseError as err:
        return ("ParseError", str(err), err.position)


# The evaluation steps before one-term products and powers became one key
# and one coefficient operation, before the character context kept its
# inverted leaves, and before a one-term sum was read in one step: every
# product convolves its term lists, every power runs square-and-multiply on
# them, every inverse is worked out from its key, and every sum takes the
# general path.  The bounds, bits and work of each step are those of the
# context.


def ref_mul_terms(f, g, packing):
    """f * g by convolution, over every pair of terms."""
    if not f or not g:
        return {}
    zero = packing.zero
    if not zero:
        packing.check_degree(max(f) + max(g))
    out = {}
    rhs = list(g.items())
    for e1, c1 in f.items():
        e1 -= zero
        for e2, c2 in rhs:
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                del out[e]
    if zero:
        packing.check_fields(out)
    return out


def ref_pow_terms(f, n, packing):
    """f**n (n >= 0) by square-and-multiply, on ``ref_mul_terms``."""
    out, base = {packing.zero: 1}, f
    while n:
        if n & 1:
            out = ref_mul_terms(out, base, packing)
        n >>= 1
        if n:
            base = ref_mul_terms(base, base, packing)
    return out


class ConvolvingSteps:
    """`*`, `^`, `+` and `-` of an evaluation context, on the reference
    kernels, keeping no group."""

    def holds(self, text):
        return False

    def recall(self, text, room):
        return None

    def keep(self, text, value):
        pass

    def add(self, left, right, pos):
        return self.reference_sum(left, right[0], right, pos)

    def sub(self, left, right, pos):
        return self.reference_sum(left, poly.neg_terms(right[0]), right, pos)

    @staticmethod
    def reference_sum(left, g, right, pos):
        """left + g, where ``right`` gives g's denominator and work."""
        (f, df, bf, wf), (_, dg, _, wg) = left, right
        read = len(f) + len(g)
        if df % dg == 0 and type(f) is dict:
            if df != dg:
                g = {e: c * (df // dg) for e, c in g.items()}
            terms, den, read = poly.add_into(f, g), df, len(g)
            if df != 1 and gcd(df, *(terms.get(e, 0) for e in g)) != 1:
                terms, den = poly.lowest_terms(terms, df)
        else:
            terms, den = poly.add_scaled(f, df, g, dg)
        if df % dg == 0:
            bits = max(bf, max((abs(terms.get(e, 0)) for e in g), default=0).bit_length())
        else:
            bits = _bits(terms, den)
        if _digits(bits) > MAX_RESULT_DIGITS:
            bits = _bits(terms, den)
            if _digits(bits) > MAX_RESULT_DIGITS:
                raise ParseError(f"this sum has coefficients of more than {MAX_RESULT_DIGITS} digits", pos)
        work = wf + wg + read * _digits(bits)
        if work > MAX_WORK:
            raise _over_budget(pos)
        return terms, den, bits, work

    def mul(self, left, right, pos):
        (f, df, bf, wf), (g, dg, bg, wg) = left, right
        pairs = len(f) * len(g)
        if pairs > MAX_PRODUCT_PAIRS:
            raise ParseError(
                f"factors of {len(f)} and {len(g)} terms make more than "
                f"{MAX_PRODUCT_PAIRS} term pairs",
                pos,
            )
        if not pairs:
            return {}, 1, 0, wf + wg
        bits = bf + bg + pairs.bit_length()
        digits = _digits(bits)
        if digits > MAX_RESULT_DIGITS:
            bits = _bits(f, df) + _bits(g, dg) + pairs.bit_length()
            digits = _digits(bits)
            if digits > MAX_RESULT_DIGITS:
                raise ParseError(
                    f"this product may have coefficients of more than {MAX_RESULT_DIGITS} digits",
                    pos,
                )
        work = wf + wg + pairs * digits
        if work > MAX_WORK:
            raise _over_budget(pos)
        try:
            terms, den = poly.lowest_terms(ref_mul_terms(f, g, self.packing), df * dg)
        except ResourceLimitError as exc:
            raise ParseError(str(exc), pos) from None
        return terms, den, bits, work

    def power(self, value, n, pos):
        (terms, den, _, work), k = value, abs(n)
        size = len(terms)
        if size > 1 and comb(size + k - 1, min(k, size - 1)) > MAX_POWER_TERMS:
            raise ParseError(
                f"a {size}-term base to the power {k} may have more than "
                f"{MAX_POWER_TERMS} terms",
                pos,
            )
        digits = k * log10(sum(map(abs, terms.values())) * den) if terms and k > 1 else 0
        if k > 1 and digits > MAX_POWER_DIGITS:
            raise ParseError(
                f"this base to the power {k} may have coefficients of more "
                f"than {MAX_POWER_DIGITS} digits",
                pos,
            )
        if n < 0:
            value = self.inverse(value, pos)
        if k == 1:
            return value
        if size:
            work += _power_pairs(size, k) * (int(digits) + 1)
            if work > MAX_WORK:
                raise _over_budget(pos)
        try:
            terms = ref_pow_terms(value[0], k, self.packing)
        except ResourceLimitError as exc:
            raise ParseError(str(exc), pos) from None
        den = value[1] ** k if terms else 1
        return terms, den, _bits(terms, den), work


class ConvolvingPolynomialContext(ConvolvingSteps, PolynomialContext):
    pass


class ConvolvingCharacterContext(ConvolvingSteps, CharacterContext):
    def inverse(self, value, pos):
        terms = value[0]
        if len(terms) == 1:
            ((key, coeff),) = terms.items()
            if coeff in (1, -1):
                inverse = 2 * CHAR_PACKING.zero - key
                try:
                    CHAR_PACKING.check_fields((inverse,))
                except ResourceLimitError as exc:
                    raise ParseError(str(exc), pos) from None
                return {inverse: coeff}, 1, 1, value[3]
        raise ParseError("only unit monomials can be raised to negative powers", pos)


@functools.cache
def step_contexts(ring):
    """A fresh evaluation context of ``ring``, as ``gkm-check`` and
    ``expand`` build it, and its convolving reference."""
    context = _context_for.__wrapped__(ring)
    if ring == "RT":
        return context, ConvolvingCharacterContext()
    return context, ConvolvingPolynomialContext(context.ring, context.aliases)


def steps_outcome(text, builder):
    """The terms, denominator, bits and work that evaluating ``text`` builds,
    or the message and position of its ParseError."""
    try:
        terms, *rest = _Parser(text, builder).parse()
    except ParseError as err:
        return ("ParseError", str(err), err.position)
    return (dict(terms), *rest)


def assert_same_steps(text, ring):
    context, reference = step_contexts(ring)
    assert steps_outcome(text, context) == steps_outcome(text, reference), text


class TestTokenizer:
    def test_positions_recorded(self):
        toks = tokenize("b1 + 2")
        assert [t[1] for t in toks] == ["b1", "+", "2"]
        assert [t[2] for t in toks] == [0, 3, 5]

    def test_bad_character_position(self):
        with pytest.raises(ParseError) as err:
            tokenize("b1 $ b2")
        assert err.value.position == 3

    @pytest.mark.parametrize("text, position", [("b1^\u00b2", 3), ("\u00b2", 0), ("2\u00b2", 1), ("\u00bd", 0)])
    def test_digits_that_int_refuses_are_not_numbers(self, text, position):
        # '²' and '½' pass str.isdigit or str.isnumeric, but int() refuses them
        with pytest.raises(ParseError) as err:
            tokenize(text)
        assert err.value.position == position
        assert "unexpected character" in str(err.value)

    def test_every_decimal_digit_reads_as_int_does(self):
        ctx = PolynomialContext(B_RING)
        assert parse_and_evaluate("\u0663*b1 + \uff12", ctx) == 3 * B_RING.gens()[0] + 2

    @given(st.text(alphabet=st.one_of(st.sampled_from("b1y5 _+-*^/()\t\u00b2\u00bd\u0663\u00e9$"), st.characters()), max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference_tokenizer(self, text):
        assert outcome(tokenize, text) == outcome(reference_tokenize, text)

    @pytest.mark.parametrize(
        "text",
        [
            # products of names with exponents, where a term starts and elsewhere
            "y1*y2",
            "y1^-1*y2^3*y5 + y1*b1",
            "(y1*y2) - y3*y4^2",
            "y1^2*y2*(y3*y4)*3",
            "2*y1*y2",
            "-y1*y2",
            "y1 - -y1*y2",
            "y1^2 -y1*y2",
            "(y1)*y2*y3",
            "y1^y2*y3",
            "1/y2*y3",
            # with whitespace, raised by a '^', or with a non-ASCII character
            "y1 *y2",
            "y1*y2 ^3",
            "y1*y2^3^2",
            "y1*y2*y3 ^2",
            "y1*y2^34 ^2",
            "y1*y2\u00e9",
            "y1*y2^\u0663",
            "y1*y2^2\u0663",
            "y1^-*y2",
            "y1*y2^2x",
        ],
    )
    def test_products_of_names_match_the_reference_tokenizer(self, text):
        assert tokenize(text) == reference_tokenize(text)


class TestParser:
    def test_empty_input(self):
        with pytest.raises(ParseError) as err:
            parse("")
        assert err.value.position == 0

    def test_trailing_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse("b1 b2")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse("(b1 + b2")

    def test_precedence(self):
        tree = parse("a + b * c")
        assert isinstance(tree, BinOp) and tree.op == "+"
        assert isinstance(tree.right, BinOp) and tree.right.op == "*"

    def test_power_binds_tighter_than_unary_minus(self):
        tree = parse("-a^2")
        assert isinstance(tree, Neg)
        assert isinstance(tree.operand, Pow)

    def test_rational_literal(self):
        tree = parse("2/3")
        assert isinstance(tree, Num)
        assert tree.value == Fraction(2, 3)

    def test_negative_exponent_syntax(self):
        tree = parse("y1^-1")
        assert isinstance(tree, Pow)
        assert tree.exponent == -1


# each strategy is built once per argument set: building a recursive strategy
# inside every drawn example costs more than the example
@functools.lru_cache(maxsize=None)
def leaf_nodes(names=("b1", "b2", "y1", "y5")):
    names = st.sampled_from(names)
    numbers = st.one_of(
        st.integers(min_value=0, max_value=9).map(
            lambda n: Num(Fraction(n), 0)
        ),
        st.fractions(min_value=0, max_value=5, max_denominator=7).map(
            lambda q: Num(q, 0)
        ),
    )
    return st.one_of(names.map(lambda n: Var(n, 0)), numbers)


@functools.lru_cache(maxsize=None)
def ast_nodes(names=("b1", "b2", "y1", "y5"), hostile=False):
    """Expression trees over ``names``; with ``hostile``, some leaves are
    those of :func:`hostile_leaves`."""
    leaves = leaf_nodes(names)
    return st.recursive(
        st.one_of(leaves, hostile_leaves(names)) if hostile else leaves,
        lambda children: st.one_of(
            children.map(lambda c: Neg(c, 0)),
            st.tuples(
                children, st.integers(min_value=-3, max_value=3)
            ).map(lambda t: Pow(t[0], t[1], 0)),
            st.tuples(
                st.sampled_from(["+", "-", "*"]), children, children
            ).map(lambda t: BinOp(t[0], t[1], t[2], 0)),
        ),
        max_leaves=12,
    )


def strip_positions(node):
    """Rebuild a tree with every source position zeroed, for comparisons."""
    if isinstance(node, Num):
        return Num(node.value, 0)
    if isinstance(node, Var):
        return Var(node.name, 0)
    if isinstance(node, Neg):
        return Neg(strip_positions(node.operand), 0)
    if isinstance(node, Pow):
        return Pow(strip_positions(node.base), node.exponent, 0)
    return BinOp(
        node.op, strip_positions(node.left), strip_positions(node.right), 0
    )


class TestNestingLimit:
    @pytest.mark.parametrize(
        "opening, closing", [("(", ")"), ("-", ""), ("-(", ")")]
    )
    def test_nesting_beyond_the_limit_is_a_parse_error(self, opening, closing):
        ctx = PolynomialContext(B_RING)
        n = MAX_NESTING // len(opening)
        assert parse_and_evaluate(opening * n + "b1" + closing * n, ctx) in (
            B_RING.gens()[0],
            -B_RING.gens()[0],
        )
        with pytest.raises(ParseError) as err:
            parse(opening * 5000 + "b1" + closing * 5000)
        assert err.value.position == MAX_NESTING

    def test_long_flat_chains_evaluate(self):
        b1, b2 = B_RING.gens()
        ctx = PolynomialContext(B_RING)
        terms = [f"{k}*b1^{k % 5}*b2" for k in range(5000)]
        text = terms[0] + "".join(
            ("-" if k % 3 == 0 else "+") + t for k, t in enumerate(terms[1:], 1)
        )
        expected = B_RING.zero()
        for k in range(5000):
            sign = -1 if k and k % 3 == 0 else 1
            expected = expected + sign * k * b1 ** (k % 5) * b2
        assert parse_and_evaluate(text, ctx) == expected
        assert parse_and_evaluate("*".join(["b2"] * 5000), ctx) == b2**5000


class TestPowerLimits:
    def test_exponent_beyond_the_limit_is_a_parse_error(self):
        ctx = PolynomialContext(B_RING)
        b1 = B_RING.gens()[0]
        assert parse_and_evaluate(f"b1^{MAX_EXPONENT}", ctx) == b1**MAX_EXPONENT
        assert parse_and_evaluate("b1^" + "0" * 5000 + "2", ctx) == b1**2
        for text in (f"b1^{MAX_EXPONENT + 1}", "b1^100000000000000000000000", "y1^-" + "9" * 5000):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert err.value.position == text.index("^") + 1 + text.startswith("y1^-")

    def test_projected_term_count_is_checked_before_the_power(self):
        ctx = PolynomialContext(B_RING)
        # a t-term base squared has at most C(t+1, 2) terms
        t = 1
        while (t + 2) * (t + 1) // 2 <= MAX_POWER_TERMS:
            t += 1
        base = lambda n: "(" + " + ".join(f"b1^{i}" for i in range(n)) + ")"
        assert len(parse_and_evaluate(base(t) + "^2", ctx).terms) == 2 * t - 1
        with pytest.raises(ParseError) as err:
            parse_and_evaluate(base(t + 1) + "^2", ctx)
        assert err.value.position == len(base(t + 1))
        # a monomial base projects to one term whatever the exponent
        assert parse_and_evaluate(f"y5^{MAX_EXPONENT}", CharacterContext()) == y(5) ** MAX_EXPONENT


    def test_projected_coefficient_digits_are_checked_before_the_power(self):
        ctx = PolynomialContext(B_RING)
        b1, b2 = B_RING.gens()
        # a base 1/1000*b1 projects 3 digits per unit of exponent
        k = MAX_POWER_DIGITS // 3 - 1
        assert parse_and_evaluate(f"(1/1000*b1)^{k}", ctx) == (b1 / 1000) ** k
        assert parse_and_evaluate("(2*b1 - b2)^300", ctx) == (2 * b1 - b2) ** 300
        refused = [
            (ctx, f"(1/1000*b1)^{k + 2}"),
            (ctx, "(1/3*b1+1/7*b2)^1000"),
            (ctx, "b2 + (7/3*b1 + 3*b2)^1000"),
            (CharacterContext(), "1 - (50*y1 + 51)^1000"),
        ]
        for context, text in refused:
            with pytest.raises(ParseError) as err:
                parse_and_evaluate(text, context)
            assert err.value.position == text.index("^")
            assert f"more than {MAX_POWER_DIGITS} digits" in str(err.value)
        # unit coefficients project no digits, so only the exponent bounds them
        assert parse_and_evaluate(f"y1^-{MAX_EXPONENT}", CharacterContext()) == y_inverse(1) ** MAX_EXPONENT


def random_rational_terms(rng, nvars):
    """A base with int and Fraction coefficients, as the parser builds them."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randint(0, 2) for _ in range(nvars))
        den = rng.choice((1, 1, 2, 3, 7, 12))
        num = rng.choice([n for n in range(-9, 10) if n])
        terms[e] = num if den == 1 else Fraction(num, den)
    return terms


def ref_fraction_power(terms, k):
    """terms**k by repeated multiplication of Fraction terms on tuple keys."""
    out = {(0,) * len(next(iter(terms))): Fraction(1)}
    for _ in range(k):
        product = {}
        for e1, c1 in out.items():
            for e2, c2 in terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                product[e] = product.get(e, 0) + Fraction(c1) * c2
        out = {e: c for e, c in product.items() if c}
    return out


class TestRationalPower:
    """`^` on a rational base runs on integers: F^k / L^k for the base F/L."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_power_on_fraction_terms(self, seed):
        rng = random.Random(seed)
        ctx = PolynomialContext(E_RING)
        for _ in range(8):
            base = random_rational_terms(rng, E_RING.nvars)
            k = rng.choice((0, 1, 2, 3, 5, 8, 13))
            p = Polynomial(E_RING, base)
            bits = max(*map(abs, p.packed.values()), p.den).bit_length()
            got = Polynomial._of(E_RING, *ctx.power((p.packed, p.den, bits, 0), k, 0)[:2])
            assert got == Polynomial(E_RING, ref_fraction_power(base, k)), (base, k)

    def test_texts_match_their_polynomial_powers(self):
        ctx = PolynomialContext(B_RING)
        b1, b2 = B_RING.gens()
        cases = [
            ("(1/3*b1 + 1/7*b2)^45", (b1 / 3 + b2 / 7) ** 45),
            ("(1/3*b1 + 1/7*b2 + 1/11)^9", (b1 / 3 + b2 / 7 + Fraction(1, 11)) ** 9),
            ("(1/2*b1 - 2/4*b2)^6", (b1 / 2 - b2 / 2) ** 6),
            ("(4/2*b1 + 1)^5", (2 * b1 + 1) ** 5),
            ("(1/2)^0", B_RING.one()),
        ]
        for text, expected in cases:
            assert parse_and_evaluate(text, ctx) == expected, text


class TestTextLimit:
    def test_text_beyond_the_limit_is_a_parse_error(self):
        ctx = PolynomialContext(B_RING)
        # trailing whitespace up to the cap tokenizes in linear time
        longest = "b1" + " " * (MAX_TEXT_LENGTH - 2)
        assert parse_and_evaluate(longest, ctx) == B_RING.gens()[0]
        for text in (longest + " ", "b1+" * MAX_TEXT_LENGTH + "b1"):
            for run in (parse, lambda t: parse_and_evaluate(t, ctx)):
                with pytest.raises(ParseError) as err:
                    run(text)
                assert err.value.position == MAX_TEXT_LENGTH
                assert f"longer than {MAX_TEXT_LENGTH} characters" in str(err.value)


class TestLiteralLimit:
    def test_literal_beyond_the_limit_is_a_parse_error(self):
        ctx = PolynomialContext(B_RING)
        longest = "9" * MAX_LITERAL_DIGITS
        assert parse_and_evaluate(longest, ctx) == B_RING.const(int(longest))
        assert parse_and_evaluate(f"1/{longest}", ctx) == B_RING.const(Fraction(1, int(longest)))
        assert parse_and_evaluate("0" * 5000 + "12", ctx) == B_RING.const(12)
        too_long = "7" * (MAX_LITERAL_DIGITS + 1)
        for text in (too_long, f"{too_long}/3", f"3/{too_long}", f"b1 + 2*{'7' * 5000}"):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert err.value.position == text.index("7" * (MAX_LITERAL_DIGITS + 1))
            assert f"{MAX_LITERAL_DIGITS} digits" in str(err.value)


class TestPrinterRoundTrip:
    @given(ast_nodes())
    @settings(max_examples=120, deadline=None)
    def test_parse_print_parse_is_identity(self, tree):
        printed = to_text(tree)
        assert strip_positions(parse(printed)) == tree

    def test_printed_form_is_stable(self):
        tree = parse("(b1 + b2) * b1 - 2")
        reparsed = parse(to_text(tree))
        assert strip_positions(reparsed) == strip_positions(tree)
        assert to_text(reparsed) == to_text(tree)


class TestPolynomialEvaluation:
    def test_linear_combination(self):
        x1, x2 = E_RING.gens()
        ctx = PolynomialContext(E_RING)
        value = parse_and_evaluate("1/3*(2*x1+x2)", ctx)
        assert value == Fraction(1, 3) * (2 * x1 + x2)

    def test_unknown_variable_reports_name_and_position(self):
        ctx = PolynomialContext(B_RING)
        with pytest.raises(ParseError) as err:
            parse_and_evaluate("b1 + zz", ctx)
        assert "zz" in str(err.value)
        assert err.value.position == 5

    def test_negative_exponent_rejected_for_polynomials(self):
        ctx = PolynomialContext(B_RING)
        with pytest.raises(ParseError):
            parse_and_evaluate("b1^-1", ctx)

    def test_aliases_expand(self):
        b1, b2 = B_RING.gens()
        ctx = PolynomialContext(B_RING, aliases={"b3": b1 + b2})
        assert parse_and_evaluate("b3^2", ctx) == (b1 + b2) ** 2

    def test_aliases_must_live_in_the_ring(self):
        with pytest.raises(RingMismatchError):
            PolynomialContext(B_RING, aliases={"x": E_RING.gens()[0]})

    def test_slash_only_inside_rational_literals(self):
        ctx = PolynomialContext(B_RING)
        assert parse_and_evaluate("1/2*b1", ctx) == B_RING.gens()[0] / 2
        with pytest.raises(ParseError):
            parse_and_evaluate("b1/2", ctx)
        with pytest.raises(ParseError):
            parse_and_evaluate("b1/b2", ctx)


class TestCharacterEvaluation:
    def test_unit_monomials_invert(self):
        ctx = CharacterContext()
        assert parse_and_evaluate("y1^-1", ctx) == y_inverse(1)
        assert parse_and_evaluate("y5*y1^-1*y2^-1", ctx) == y(5) * y_inverse(
            1
        ) * y_inverse(2)

    def test_only_monomials_invert(self):
        ctx = CharacterContext()
        with pytest.raises(ParseError):
            parse_and_evaluate("(y1 + y2)^-1", ctx)

    def test_integer_constants(self):
        ctx = CharacterContext()
        assert parse_and_evaluate("3", ctx) == Character.constant(3)

    def test_fractional_constant_rejected(self):
        ctx = CharacterContext()
        with pytest.raises(ParseError):
            parse_and_evaluate("1/2", ctx)

    def test_full_character_roundtrip(self):
        ctx = CharacterContext()
        for i in (1, 2, 3, 4):
            f = x_character(i)
            assert parse_and_evaluate(str(f), ctx) == f

    def test_difference_expression(self):
        ctx = CharacterContext()
        lhs = parse_and_evaluate("(y5 - 1)*(y5*y1^-1*y4^-1 - 1)", ctx)
        rhs = (y(5) - Character.one()) * (
            y(5) * y_inverse(1) * y_inverse(4) - Character.one()
        )
        assert lhs == rhs


# -- the evaluating parser against the tree-walking reference ------------------------


def b_ring_contexts():
    b1, b2 = B_RING.gens()
    aliases = {"b3": b1 + b2}
    return PolynomialContext(B_RING, aliases), ReferencePolynomialContext(B_RING, aliases)


CONTEXTS = {
    # each context meets its own variables, an alias, and one unknown name
    "Hb": (b_ring_contexts, ("b1", "b2", "b3", "y1")),
    "HT": (
        lambda: (PolynomialContext(RHO_RING), ReferencePolynomialContext(RHO_RING)),
        ("rho1", "rho2", "rho3", "rho4", "b1"),
    ),
    "RT": (
        lambda: (CharacterContext(), ReferenceCharacterContext()),
        ("y1", "y2", "y3", "y4", "y5", "b1"),
    ),
}


def assert_same_outcome(text, context, reference):
    got = outcome(parse_and_evaluate, text, context)
    want = outcome(lambda t: reference_evaluate(parse(t), reference), text)
    assert got == want, text
    if not isinstance(got, tuple):
        # Polynomial coefficients are Fractions and Character ones ints
        kind = Character if isinstance(got, Character) else type(got)
        coefficient = int if kind is Character else Fraction
        assert all(type(c) is coefficient for c in got.terms.values())


class TestEvaluationMatchesReference:
    @pytest.mark.parametrize("ring", sorted(CONTEXTS))
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_trees(self, ring, data):
        make, names = CONTEXTS[ring]
        context, reference = make()
        tree = data.draw(ast_nodes(names))
        assert_same_outcome(to_text(tree), context, reference)

    @pytest.mark.parametrize("seed", range(4))
    def test_long_x_character_products(self, seed):
        # texts built like the membership stream's RT entries: two terms of
        # degrees d and d - 1, each an integer times X4^(d // 2) and powers of
        # X1..X3 (as displayed characters), and a perturbation added
        rng = random.Random(seed)
        chars = {i: str(x_character(i)) for i in (1, 2, 3, 4)}
        context, reference = CharacterContext(), ReferenceCharacterContext()
        for _ in range(6):
            degree = rng.randint(2, 3)
            terms = []
            for d in (degree, degree - 1):
                exps = [0, 0, 0, d // 2]
                for _ in range(d - d // 2):
                    exps[rng.randrange(3)] += 1
                factors = [str(rng.choice([-3, -2, -1, 1, 2, 3]))] + [
                    f"({chars[i + 1]})" + (f"^{e}" if e > 1 else "")
                    for i, e in enumerate(exps)
                    if e
                ]
                terms.append("*".join(factors))
            text = " + ".join(f"({t})" for t in terms)
            text += f" + ({rng.randint(1, 3)}*({chars[rng.randint(1, 3)]}))"
            assert len(text) > 200
            assert_same_outcome(text, context, reference)

    @pytest.mark.parametrize(
        "ring, text",
        [
            ("Hb", "b3^2 - 2*b1*b3 + 1/3*b2^0 - (b1 - b3)^2 + b3^0"),
            ("Hb", "(b1 + b2 + 1)^3 * 0 + 0^0 - 0^2 + 4/2"),
            ("Hb", "b1 + b2^-1"),
            ("Hb", "(b1 + b2)^-0"),
            ("HT", "(rho1 + rho2 + rho3 + rho4)^2*(rho1 - rho4)"),
            ("HT", "(rho1 + rho2 + rho3 + rho4 + 1)^9"),
            ("RT", "-(y5*y1^-1)^-3 + (-y2)^-2 - 3*y5^0"),
            ("RT", "(2*y1)^-1"),
            ("RT", "(y1 - y1)^-1 + 4/2 - 6/3*y5"),
            ("RT", "y1 + 1/2"),
        ],
    )
    def test_edge_cases(self, ring, text):
        context, reference = CONTEXTS[ring][0]()
        assert_same_outcome(text, context, reference)

    @pytest.mark.parametrize("seed", range(3))
    def test_flat_sums_over_shared_denominators(self, seed):
        # flat sums whose terms share denominators, so that most sums add
        # into their left operand (scaling the right one when its
        # denominator divides the left one's) and some cancel or take out a
        # factor
        rng = random.Random(seed)
        context, reference = b_ring_contexts()
        for _ in range(30):
            text = rng.choice(["b1", "b3", "1/6", "-b2^2"])
            for _ in range(rng.randint(1, 12)):
                den = rng.choice([1, 2, 3, 6])
                term = f"{rng.randint(1, 13)}/{den}*{rng.choice(['b1', 'b2', 'b3', 'b1^2'])}"
                text += rng.choice("+-") + term
            assert_same_outcome(text, context, reference)

    def test_sums_never_change_the_cached_leaves(self):
        b1, b2 = B_RING.gens()
        context = b_ring_contexts()[0]
        for text in ("b1+b2", "b1^1+b2", "(b1)-b1", "b3+b3", "b3-b2", "2*b1+b1"):
            parse_and_evaluate(text, context)
        assert [parse_and_evaluate(v, context) for v in ("b1", "b2", "b3")] == [b1, b2, b1 + b2]
        characters = CharacterContext()
        for text in ("y1+y2", "y1^1-y1", "(y5)+y5", "y1^-1+y1"):
            parse_and_evaluate(text, characters)
        assert [parse_and_evaluate(f"y{j}", characters) for j in (1, 5)] == [y(1), y(5)]
        assert y(1) == Character.monomial(omega(1))
        # the leaves are read-only views
        for ctx in (context, characters):
            for terms, *_ in ctx._variables.values():
                with pytest.raises(TypeError):
                    terms[0] = 1

    def test_results_do_not_share_the_contexts_leaves(self):
        b1 = B_RING.gens()[0]
        context = b_ring_contexts()[0]
        parse_and_evaluate("b1", context).terms.clear()
        assert parse_and_evaluate("b1", context) == b1
        characters = CharacterContext()
        parse_and_evaluate("y1", characters).terms.clear()
        assert parse_and_evaluate("y1", characters) == y(1)


class TestResultDigits:
    """Every value keeps its numerators and denominator under
    MAX_RESULT_DIGITS digits, so that it prints."""

    def test_a_product_counts_its_term_pairs(self):
        ctx = PolynomialContext(B_RING)
        # 2^6637 has 6638 bits; two of them make 13276 bits, and a numerator
        # of 13278 bits may pass 4000 digits
        big = "*".join(["2^1000"] * 6 + ["2^637"])
        assert parse_and_evaluate(f"({big}*b1)*({big}*b2)", ctx) == 2**13274 * B_RING.monomial((1, 1))
        text = f"({big}*b1 + {big}*b2)*({big}*b1 - {big}*b2)"
        with pytest.raises(ParseError) as err:
            parse_and_evaluate(text, ctx)
        assert err.value.position == text.index(")*(") + 1
        assert f"more than {MAX_RESULT_DIGITS} digits" in str(err.value)

    @pytest.mark.parametrize("ring", ["Hb", "RT"])
    def test_recorded_bounds_cover_the_values(self, ring):
        # each step's recorded bound is at least the bit length of every
        # numerator and of the denominator of its result
        rng = random.Random(100)
        ctx = PolynomialContext(B_RING) if ring == "Hb" else CharacterContext()
        leaves = [ctx.variable(n, 0) for n in (("b1", "b2") if ring == "Hb" else ("y1", "y5"))]

        def value():
            # near-equal coefficients of 2^m - 1 and a tight bound, so that
            # coefficients of a product that sum several pairs need its bits
            m = rng.randint(1, 40)
            v = ctx.constant(2**m - 1, 1 if ring == "RT" else rng.randint(1, 9), 0)
            for _ in range(rng.randint(1, 4)):
                c = ctx.constant(2**m - rng.randint(1, 3), 1, 0)
                v = ctx.add(v, ctx.mul(c, rng.choice(leaves), 0), 0)
            terms, den, _, work = v
            return terms, den, max([den, *map(abs, terms.values())]).bit_length(), work

        for _ in range(150):
            left, right = value(), value()
            for op in (ctx.add, ctx.sub, ctx.mul):
                terms, den, bits, _ = op(left, right, 0)
                assert bits >= max([den, *map(abs, terms.values())]).bit_length()
            terms, den, bits, _ = ctx.power(left, rng.randint(2, 5), 0)
            assert bits >= max([den, *map(abs, terms.values())]).bit_length()

    def test_long_sums_are_bounded_by_their_own_digits(self):
        # each sum is bounded by its own digits, and these stay small
        ctx = PolynomialContext(B_RING)
        b1, b2 = B_RING.gens()
        assert parse_and_evaluate("+".join(["b1"] * 20_000), ctx) == 20_000 * b1
        text = " + ".join(["1/2*b1", "1/3*b2"] * 3_000)
        assert parse_and_evaluate(text, ctx) == 1500 * b1 + 1000 * b2
        assert parse_and_evaluate("-".join(["y1"] * 20_001), CharacterContext()) == Character.constant(-19_999) * y(1)


class TestProductLimit:
    def test_product_beyond_the_limit_is_a_parse_error(self):
        ctx = PolynomialContext(B_RING)
        # factors of t1 and t2 terms make t1*t2 term pairs
        small = "(" + " + ".join(f"b1^{i}" for i in range(MAX_PRODUCT_PAIRS // 100)) + ")"
        large = "(" + " + ".join(f"b2^{i}" for i in range(100)) + ")"
        assert len(parse_and_evaluate(f"{small}*{large}", ctx).terms) == MAX_PRODUCT_PAIRS
        text = f"b1 + {small}*(b1 + {large[1:]}"
        with pytest.raises(ParseError) as err:
            parse_and_evaluate(text, ctx)
        assert err.value.position == text.index("*(")
        assert f"{MAX_PRODUCT_PAIRS} term pairs" in str(err.value)
        # the syntax tree has no terms to count
        assert isinstance(parse(text), BinOp)


STREAM_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "stream.py"


def load_stream(monkeypatch):
    """The benchmark's request generator, loaded from its text so that no
    bytecode cache is written next to it (its dataclass needs a module)."""
    stream = types.ModuleType("perfbench_stream")
    monkeypatch.setitem(sys.modules, stream.__name__, stream)
    exec(compile(STREAM_PATH.read_text(encoding="utf-8"), str(STREAM_PATH), "exec"), stream.__dict__)
    return stream


def spent_on(text, context):
    """The work that evaluating ``text`` adds up: that of its value."""
    return _Parser(text, context).parse()[3]


class TestWorkBudget:
    """A text is refused where its summed work passes MAX_WORK."""

    def test_each_text_starts_from_zero(self):
        ctx = PolynomialContext(B_RING)
        text = "*".join(["(b1+b2)^9"] * 37)
        spent = spent_on(text, ctx)
        assert MAX_WORK // 3 < spent < MAX_WORK // 2
        # the context keeps no count, so each text gets the whole budget
        for _ in range(3):
            assert parse_and_evaluate(text, ctx) == (B_RING.gens()[0] + B_RING.gens()[1]) ** 333
        with pytest.raises(ParseError) as err:
            parse_and_evaluate(f"{text}*{text}*{text}", ctx)
        assert "term-digits of work" in str(err.value)

    def test_charges_follow_the_operators(self):
        ctx = PolynomialContext(B_RING)
        # a sum: the terms it reads times the digits of its result, those of
        # both operands when its left one is a cached leaf (which it copies)
        assert spent_on("b1+b2", ctx) == 2 * 1
        # a product: its term pairs times the digits its coefficients may
        # have (b1*b2: 1 + 1 bits and 1 for the pair count, 1 digit; the two
        # sums: 1 + 1 bits and 3 for the pair count, 2 digits)
        assert spent_on("b1*b2", ctx) == 1
        assert spent_on("(b1+b2)*(b1-b2)", ctx) == 2 + 2 + 4 * 2
        # 123456*b1 may have 17 + 1 + 1 bits (6 digits), and so may the sum,
        # which adds the one term of b2 into the product's own dict
        assert spent_on("123456*b1+b2", ctx) == 1 * 6 + 1 * 6
        # along a chain of sums the bound follows the coefficients (2000
        # needs 11 bits, 4 digits): it does not gain a bit at each step
        assert spent_on("+".join(["b1"] * 2000), ctx) <= 2 * 2000 * 4
        # a power: the pairs square-and-multiply makes (2*2 to square, then
        # 1*3 for the unit times the square), times its projected digits
        assert spent_on("(b1+b2)^2", ctx) == 2 + 7 * 1
        # the zeroth power of one term makes no product
        assert spent_on("b1^0", ctx) == 0
        assert spent_on("y1^0", CharacterContext()) == 0
        # each operator adds its own work to that of both of its operands
        # ((b1+b2)^2 has 3 terms, coefficients of 2 bits)
        assert spent_on("b1 + (b1+b2)^2", ctx) == 9 + (1 + 3) * 1
        assert spent_on("(b1+b2)^2 + b1", ctx) == 9 + 1 * 1
        assert spent_on("b1 * (b1+b2)^2", ctx) == 9 + 3 * 2
        assert spent_on("-(b1+b2)^2", ctx) == 9

    def test_a_sum_adding_into_its_left_operand_charges_the_terms_it_adds(self):
        # a flat sum reads each term once: its work is that of its terms plus
        # one term-digit per `+`, not the terms of every partial sum
        ctx = PolynomialContext(B_RING)
        terms = [f"b1^{i % 1000}*b2^{i // 1000}" for i in range(2000)]
        assert spent_on("+".join(terms), ctx) == sum(spent_on(t, ctx) for t in terms) + 1999

    def test_refused_at_the_operator_that_passes(self):
        ctx = PolynomialContext(B_RING)
        p = "*".join(["(b1+b2)^9"] * 400)
        with pytest.raises(ParseError) as err:
            parse_and_evaluate(f"{p}-{p}", ctx)
        pos = err.value.position
        assert p[pos] == "*"
        assert spent_on(p[:pos], ctx) <= MAX_WORK

    @pytest.mark.parametrize("size, k", [(1, 1000), (2, 300), (3, 40), (4, 12), (5, 7), (1, 0), (3, 0)])
    def test_power_pairs_count_what_pow_terms_multiplies(self, monkeypatch, size, k):
        # x0 + ... + x(size-1) to the j-th power has every one of its
        # C(size+j-1, j) possible terms, so the projection is exact.  The
        # work of a power is charged as square-and-multiply's term pairs,
        # which pow_terms still makes for a base of several terms; a
        # one-term base it raises directly
        ring = PolyRing.make(tuple(f"x{i}" for i in range(size)), (1,) * size)
        base = sum(ring.gens(), ring.zero()).packed
        reference_pairs, pairs = [], []

        def counting(into, mul_terms):
            def counted(f, g, packing):
                into.append(len(f) * len(g))
                return mul_terms(f, g, packing)

            return counted

        monkeypatch.setitem(globals(), "ref_mul_terms", counting(reference_pairs, ref_mul_terms))
        monkeypatch.setattr(poly, "mul_terms", counting(pairs, poly.mul_terms))
        assert poly.pow_terms(base, k, ring.packing) == ref_pow_terms(base, k, ring.packing)
        assert sum(reference_pairs) == _power_pairs(size, k)
        assert sum(pairs) == (0 if size == 1 else _power_pairs(size, k))

    def test_every_stream_request_stays_within_the_budget(self, tmp_path, capsys, monkeypatch):
        stream = load_stream(monkeypatch)
        for request in stream.generate(5, 2, str(tmp_path), "req"):
            code = main(list(request.argv))
            out, err = capsys.readouterr()
            assert stream.judge(request, code, out, err), (request.argv, err)


# the names each ring's random trees draw: its variables, an alias where it
# has one, and one unknown name
STEP_NAMES = {
    "Hb": ("b1", "b2", "b3", "y1"),
    "HT": ("rho1", "rho2", "rho3", "rho4", "b1"),
    "RT": ("y1", "y2", "y3", "y4", "y5", "b1"),
    "RX": ("X1", "X2", "X3", "X4", "b1"),
}

P_MINUS_P = "*".join(["(b1+b2)^9"] * 400) + "-" + "*".join(["(b1+b2)^9"] * 400)


@functools.lru_cache(maxsize=None)
def word_texts(names):
    """Texts shaped as expanded ones: sums of words over ``names``, some with
    a coefficient, under a power or times a word, with exponents at and past
    every irregular value of a word."""
    exponents = st.one_of(
        st.just(""),
        st.integers(-3, 3).map("^{}".format),
        st.sampled_from(["^-0", "^0002", "^999", "^1000", "^-1000", "^1001", "^8191", "^-8192"]),
    )
    factor = st.builds("{}{}".format, st.sampled_from(names), exponents)
    word = st.lists(factor, min_size=1, max_size=6).map("*".join)
    term = st.builds("{}{}".format, st.sampled_from(["", "-", "2*", "-3*", "1/2*", "4/6*"]), word)
    signed = st.tuples(st.sampled_from([" + ", " - ", "+", "-"]), term).map("".join)
    text = st.builds(lambda first, rest: first + "".join(rest), term, st.lists(signed, max_size=5))
    return st.one_of(
        text,
        st.builds("({})^{}".format, text, st.integers(-2, 3)),
        st.builds("{}*({})".format, word, text),
        st.builds("({})*{}".format, text, word),
    )


class TestStepsMatchTheConvolvingReference:
    """Every text builds the same terms, denominator, bit bound and work as
    with convolved products, square-and-multiply powers and inverses worked
    out from their keys, or fails with the same message at the same place."""

    @pytest.mark.parametrize("ring", sorted(STEP_NAMES))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_random_trees(self, ring, data):
        assert_same_steps(to_text(data.draw(ast_nodes(STEP_NAMES[ring]))), ring)

    @pytest.mark.parametrize("ring", sorted(STEP_NAMES))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_word_shaped_texts(self, ring, data):
        assert_same_steps(data.draw(word_texts(STEP_NAMES[ring])), ring)

    @pytest.mark.parametrize("seed", range(3))
    def test_every_stream_text(self, seed, tmp_path, monkeypatch):
        stream = load_stream(monkeypatch)
        for request in stream.generate(seed, 10, str(tmp_path), "req"):
            if request.kind == "expand":
                assert_same_steps(request.argv[1], "RT")
            else:
                entries = json.loads(Path(request.argv[-1]).read_text(encoding="utf-8"))["entries"]
                for text in entries.values():
                    assert_same_steps(text, request.kind)

    @pytest.mark.parametrize(
        "ring, text",
        [
            # total degrees of 32 767 (the field limit) and 32 768
            ("Hb", "*".join(["b1^1000"] * 32) + "*b1^767"),
            ("Hb", "*".join(["b1^1000"] * 32) + "*b1^768"),
            ("Hb", "(b1^1000)^32*b1^767"),
            ("Hb", "(b1^1000)^32*b2^768"),
            ("Hb", "(b1*b2^31)^1000*b1^767"),
            ("Hb", "(b1*b2^31)^1000*b1^768"),
            ("Hb", "(b1*b2^32)^992"),
            ("Hb", "(b1*b2^32)^993"),
            ("Hb", "(b1^64)^511*b2^63"),
            ("Hb", "(b1^2*b2^62)^512"),
            ("Hb", "(b1+b2)^100*(b1^1000)^32*b1^667"),
            ("Hb", "(b1+b2)^100*(b1^1000)^32*b1^668"),
            ("Hb", "(1/3*b1^3)^999 + 2/3*b2"),
            ("Hb", "(-2/7*b3)^5*(b1^0)^0"),
            # doubled y1 coordinates of 16 382, 16 384, -16 384 and -16 386
            ("RT", "(y1^1000)^8*y1^191"),
            ("RT", "(y1^1000)^8*y1^192"),
            ("RT", "(y1^16)^512"),
            ("RT", "(y1^16)^511*y1^15"),
            ("RT", "(y1^-1000)^8*y1^-192"),
            ("RT", "(y1^-1000)^8*y1^-193"),
            ("RT", "(y1^-16)^512"),
            ("RT", "(y1^-16)^513"),
            ("RT", "(y5^32)^512"),
            ("RT", "(y5^-32)^512*y5^-1"),
            ("RT", "(y5*y1^-1)^1000*y2^-1000"),
            ("RT", "(y1^-1)^1000"),
            ("RT", "(y1^-1)^0 + y1^-0 - y5^0"),
            ("RT", "(2*y1)^-1"),
            ("RT", "(-y1)^-1 + (-y2)^-3"),
            ("RT", "(y1 - y1)^-1"),
            ("RT", "y1^-1 + y2"),
            ("RT", "y1^-1 - y1^-1 + y2^-1*y3^-1 + 1"),
            ("Hb", P_MINUS_P),
            # each place a word is read factor by factor: a field past its
            # limit on the way, or at the end (doubled y1 coordinates of
            # 16 382 and 16 384, and of -16 384 and -16 386); and a word of
            # both signs whose fields stay inside
            ("RT", "*".join(["y1^1000"] * 8) + "*y1^191"),
            ("RT", "*".join(["y1^1000"] * 8) + "*y1^192"),
            ("RT", "*".join(["y1^-1000"] * 8) + "*y1^-192"),
            ("RT", "*".join(["y1^-1000"] * 8) + "*y1^-193"),
            ("RT", "*".join(["y1^1000"] * 9) + "*y1^-1000"),
            ("RT", "y5^1000*" + "*".join(["y1^-1000"] * 8) + "*y5^-1000"),
            ("HT", "*".join(["rho1^1000"] * 32) + "*rho2^767"),
            ("HT", "*".join(["rho1^1000"] * 32) + "*rho2^768"),
            ("RX", "X4^1000*" * 32 + "X1^768 + 1"),
            # a zero exponent, an alias, a negative exponent in a polynomial
            # ring, an unknown name, a word with whitespace
            ("RT", "y1^0*y2"),
            ("RT", "y1^-0*y2 + y1^-0"),
            ("RT", "y1^0002*y2^-001"),
            ("Hb", "b3*b1"),
            ("Hb", "b1*b3^2 + b2*b3"),
            ("Hb", "b1^-1*b2"),
            ("Hb", "b1*b2^-1"),
            ("RT", "z*y1"),
            ("RT", "y1*y2*z"),
            ("RT", "y1 ^ - 2 * y2"),
            ("RT", "y1^1001*y2"),
            # the bit bound of a word past MAX_RESULT_DIGITS, which the
            # factor-by-factor reading recomputes, and its work past MAX_WORK
            ("RT", "*".join(["y1", "y1^-1"] * 3500)),
            ("Hb", "*".join(["b1"] * 7000) + " + b2"),
            ("RT", "*".join(["y1", "y2^-1"] * 6000)),
            ("Hb", "*".join(["b2"] * 12000)),
            # one-term sums into a sum the text owns, over 1 and not
            ("RT", "y1*y2 + y1*y2 - 2*y1*y2 + y3 - y3"),
            ("Hb", "1/2*b1*b2 + b1*b2 + 1/2*b1*b2 - 2*b1*b2"),
            ("Hb", "b1*b2 + 1/3 + b1^2*b2 - 1/3"),
        ],
    )
    def test_edge_cases(self, ring, text):
        assert_same_steps(text, ring)


class TestWordTokens:
    @pytest.mark.parametrize(
        "ring, text, at, message",
        [
            ("Hb", "b1^-1*b2", "^", "negative exponents are not allowed"),
            ("Hb", "b1 + b1*b2^-3", "^", "negative exponents are not allowed"),
            ("RT", "y1*y2*z", "z", "unknown variable 'z'"),
            ("RT", "2 - y1*y2^1001", "1001", "exponent exceeds 1000"),
            ("RT", "(" + "*".join(["y1^1000"] * 9) + ")", "*y1^1000)", "16-bit"),
        ],
    )
    def test_a_word_read_from_its_tokens_keeps_its_positions(self, ring, text, at, message):
        # each error is reported where the text has it
        with pytest.raises(ParseError, match=message) as err:
            parse_and_evaluate(text, _context_for(ring))
        assert err.value.position == text.index(at)


def y_word(*exponents):
    """The product of y_j^e over the (j, e) pairs, from y and y_inverse."""
    out = Character.one()
    for j, e in exponents:
        out = out * (y(j) ** e if e >= 0 else y_inverse(j) ** -e)
    return out


class TestInverseKeys:
    """The key of v^-1 is 2*zero - key(v), inside words and outside them."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            *[(f"y{j}^-1", y_word((j, -1))) for j in range(1, 6)],
            *[(f"y{j}^-1*y{6 - j}^-1", y_word((j, -1), (6 - j, -1))) for j in range(1, 6)],
            ("(y1*y2)^-1", y_word((1, -1), (2, -1))),
            ("(-y5)^-1", -y_word((5, -1))),
            ("y5*y1^-1*y2^-1", y_word((5, 1), (1, -1), (2, -1))),
            ("y1^-2*y2^-1000*y5^-3", y_word((1, -2), (2, -1000), (5, -3))),
            ("y3*(y4*y1)^-1*y2^-1", y_word((3, 1), (4, -1), (1, -1), (2, -1))),
        ],
    )
    def test_inverses_equal_their_products_of_y_and_y_inverse(self, text, expected):
        context = CharacterContext()
        assert parse_and_evaluate(text, context) == expected
        assert parse_and_evaluate(text, context) == expected
        assert parse_and_evaluate(text.replace("*", " * "), context) == expected
        assert parse_and_evaluate(f"2*{text}", context) == Character.constant(2) * expected


def value_of(text, context):
    """The terms, denominator, bits and work that ``text`` builds in ``context``."""
    terms, *rest = _Parser(text, context).parse()
    return (dict(terms), *rest)


def kept_value(context, text, room=MAX_NESTING):
    """What ``context`` keeps for ``text``, as ``value_of`` gives a value, and
    the reach kept with it; None when it keeps nothing that fits ``room``."""
    kept = context.recall(text, room)
    if kept is None:
        return None
    terms, *rest = kept
    return (dict(terms), *rest), context._kept[text][4]


def reach_of(text):
    """The count of '(' and '-' in ``text``."""
    return text.count("(") + text.count("-")


class _DepthParser(_Parser):
    """A parser that records the deepest nesting it enters."""

    deepest = 0

    def enter(self, pos):
        super().enter(pos)
        self.deepest = max(self.deepest, self.depth)


def groups_of(text):
    """The parenthesized groups of ``text``, innermost first, found by
    matching parentheses."""
    opened, groups = [], []
    for i, ch in enumerate(text):
        if ch == "(":
            opened.append(i)
        elif ch == ")" and opened:
            groups.append(text[opened.pop() : i + 1])
    return groups


def ungrouped(tokens):
    """The tokens with each group token replaced by its text's own tokens."""
    out = []
    for kind, text, pos in tokens:
        if kind == "group":
            out += [(k, t, pos + at) for k, t, at in tokenize(text)]
        else:
            out.append((kind, text, pos))
    return out


def fresh_context(ring):
    """A new context of ``ring``, as ``gkm-check`` and ``expand`` build it,
    with nothing kept yet."""
    return _context_for.__wrapped__(ring)


def stream_texts(stream, seed, blocks, directory, tag):
    """The (ring, text) pairs that the stream's requests parse."""
    for request in stream.generate(seed, blocks, str(directory), tag):
        if request.kind == "expand":
            yield "RT", request.argv[1]
        else:
            entries = json.loads(Path(request.argv[-1]).read_text(encoding="utf-8"))["entries"]
            yield from ((request.kind, text) for text in entries.values())


def assert_charges_cover_sizes(context):
    """The bytes charged for what ``context`` keeps are at least what
    sys.getsizeof counts for it."""
    size = sys.getsizeof(context._kept)
    for text, (terms, den, bits, work, reach) in context._kept.items():
        size += sum(map(sys.getsizeof, (text, context._kept[text], den, bits, work, reach)))
        if type(terms) is dict:  # a read-only leaf is the context's own
            size += sys.getsizeof(terms) + sum(map(sys.getsizeof, (*terms, *terms.values())))
    assert size <= context._kept_bytes <= MAX_KEPT_BYTES


class TestWordMemo:
    """A word, names with exponents joined by '*', is read from its tokens
    where it stands, and a context keeps nothing for it."""

    @pytest.mark.parametrize(
        "ring, word, at, message",
        [
            ("RT", "y1*y2^1001", "1001", "exponent exceeds 1000"),
            ("RT", "y1*y2^-01001", "01001", "exponent exceeds 1000"),
            ("RT", "*".join(["y1^1000"] * 9), "*y1^1000", "16-bit"),
            ("RT", "*".join(["y1^-1000"] * 8) + "*y1^-193", "*y1^-193", "16-bit"),
            ("Hb", "*".join(["b1^1000"] * 32) + "*b2^768", "*b2^768", "total degree past"),
            ("Hb", "b1*b2^-3", "^", "negative exponents are not allowed"),
            ("RT", "y1*y2*z", "z", "unknown variable 'z'"),
            ("RT", "y1*z", "z", "unknown variable 'z'"),
        ],
    )
    def test_a_word_whose_reading_raises_is_never_kept(self, ring, word, at, message):
        context = fresh_context(ring)
        for prefix in ("", "2 + (", "1 - ", "(1 + ", ""):
            text = prefix + word + (")" if "(" in prefix else "")
            with pytest.raises(ParseError, match=message) as err:
                parse_and_evaluate(text, context)
            assert err.value.position == len(prefix) + word.rindex(at)
            assert kept_value(context, word) is None and not context._kept


# groups of every ring, some of a value other than one term of coefficient 1
# over 1
MEMO_GROUPS = {
    "RT": ["(y1*y2)", "(y1^-1*y2^-1*y5)", "(y5^1000*y1^-1000)", "(y1*y2*y1^-1)", "(y1^0*y2)", "(y1^-0*y2^0002)",
           "(" + "*".join(["y1^1000"] * 8) + "*y1^191)", "(" + "*".join(["y1^-1000"] * 8) + "*y1^-192)"],
    "Hb": ["(b1*b2)", "(b1^7*b2^1000)", "(b2^1000*b1^1000*b2^999)", "(b3*b1)", "(b2*b3^3)"],
    "HT": ["(rho1*rho2^3*rho4)", "(rho4^2*rho3)"],
    "RX": ["(X1*X2)", "(X4^1000*X3^2)"],
}


class TestGroupMemo:
    """A context keeps the value of every group, with its reach, by the
    group's text.  A context that has read a text, and each of its groups
    alone, reads it as a fresh context does: to the same terms, denominator,
    bits and work, or to the same ParseError message at the same position."""

    @staticmethod
    def assert_warm_reads_as_fresh(text, ring):
        expected = steps_outcome(text, fresh_context(ring))
        warm = fresh_context(ring)
        for group in groups_of(text):
            steps_outcome(group, warm)
        # the groups are hits where they fit, and then the whole text is
        assert steps_outcome(text, warm) == expected, text
        assert outcome(lambda t: ungrouped(tokenize(t, warm.holds)), text) == outcome(tokenize, text)
        assert steps_outcome(text, warm) == expected, text
        if expected[0] != "ParseError":
            # every group is kept, group tokens inside or not
            assert set(groups_of(text)) <= set(warm._kept), text

    @pytest.mark.parametrize("ring", sorted(STEP_NAMES))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_trees(self, ring, data):
        self.assert_warm_reads_as_fresh(to_text(data.draw(ast_nodes(STEP_NAMES[ring], hostile=True))), ring)

    @pytest.mark.parametrize("ring", sorted(STEP_NAMES))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_word_shaped_texts(self, ring, data):
        self.assert_warm_reads_as_fresh(data.draw(word_texts(STEP_NAMES[ring])), ring)

    @pytest.mark.parametrize(
        "ring, text",
        [
            ("Hb", P_MINUS_P),
            ("Hb", "(b1 + b2 + b1*b2)^3 - ((b1)) * (b3*b1 + 2)"),
            ("Hb", "(-(-(b1 + b2)))"),
            # a '-' after a kept group is binary, as after its ')'
            ("RT", "(y1 + y2 + y3) -y1*y2"),
            ("RT", "2 - (y1 + y2 + y3) - y4*y5^-1 + (y1 + y2 + y3)*y1*y2"),
            ("RT", "((y1 + y2 + y3))-y1*y2"),
        ],
    )
    def test_edge_cases(self, ring, text):
        self.assert_warm_reads_as_fresh(text, ring)

    @pytest.mark.parametrize("ring", sorted(STEP_NAMES))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_no_reading_of_a_kept_group_nests_past_its_reach(self, ring, data):
        context = fresh_context(ring)
        steps_outcome(to_text(data.draw(ast_nodes(STEP_NAMES[ring], hostile=True))), context)
        for group, (*_, reach) in context._kept.items():
            parser = _DepthParser(group, _TreeBuilder())
            parser.parse()
            assert parser.deepest <= reach == reach_of(group), group

    @pytest.mark.parametrize("group, inner", [("(b1 + (b2 - b1))", 2), ("(b1 - -(b2))", 3), ("(-(-(b1)))", 5), ("(b1 - --b2)", 3)])
    def test_a_hit_deep_inside_is_used_only_within_the_nesting_limit(self, monkeypatch, group, inner):
        # a group that reaches ``inner`` levels below where it starts, kept
        # at depth 1, is a hit down to depth MAX_NESTING - reach, and read
        # from its tokens below that, which raises only where a fresh
        # reading does: past depth MAX_NESTING - inner
        reach = reach_of(group)
        for depth in sorted({*range(MAX_NESTING - reach - 1, MAX_NESTING + 1), MAX_NESTING - inner}):
            warm = fresh_context("Hb")
            value_of(f"2*({group} + b2)", warm)
            assert kept_value(warm, group) == (value_of(group, fresh_context("Hb")), reach)
            recalls = []
            recall = warm.recall
            monkeypatch.setattr(warm, "recall", lambda text, room: recalls.append((text, recall(text, room))) or recalls[-1][1])
            text = "(" * depth + group + ")" * depth
            outcome = steps_outcome(text, warm)
            assert outcome == steps_outcome(text, fresh_context("Hb"))
            assert [kept is not None for t, kept in recalls if t == group] == [depth + reach <= MAX_NESTING]
            assert (outcome[0] != "ParseError") == (depth + inner <= MAX_NESTING)
            if outcome[0] == "ParseError":
                assert f"nested more than {MAX_NESTING} deep" in outcome[1]

    @pytest.mark.parametrize(
        "text",
        [
            "b1 + * (b1 + b2 + b1*b2) $",
            "(b1 + b2 + b1*b2) * ) + (b1 + $)",
            "((((b1 + b2 + b1*b2) - b1)) b2 \u00b2",
            "(" * 200 + "(b1 + b2 + b1*b2)" + ")" * 200 + " $",
        ],
    )
    def test_a_bad_character_past_a_kept_group_is_reported_first(self, text):
        # every character outside the kept groups is read before the parse,
        # and a kept group held none that the tokenizer refuses
        warm = fresh_context("Hb")
        value_of("(b1 + b2 + b1*b2)", warm)
        head = text[: text.rindex(" ")]
        assert ("group", "(b1 + b2 + b1*b2)", head.index("(b1 + b2")) in tokenize(head, warm.holds)
        expected = steps_outcome(text, fresh_context("Hb"))
        assert expected[0] == "ParseError" and "unexpected character" in expected[1]
        assert steps_outcome(text, warm) == expected

    @pytest.mark.parametrize(
        "text", ["b1 (b1 + b2 + b1*b2)", "(b1 (b1 + b2 + b1*b2))", "b1^(b1 + b2 + b1*b2)", "2/(b1 + b2 + b1*b2)"]
    )
    def test_an_error_at_a_kept_group_names_its_parenthesis(self, text):
        warm = fresh_context("Hb")
        value_of("(b1 + b2 + b1*b2)", warm)
        assert "group" in {kind for kind, _, _ in tokenize(text, warm.holds)}
        expected = steps_outcome(text, fresh_context("Hb"))
        assert expected[0] == "ParseError" and "'('" in expected[1]
        assert steps_outcome(text, warm) == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_a_group_token_stands_for_its_own_tokens(self, seed, tmp_path, monkeypatch):
        # on the benchmark's stream, warm-up included, the tokens of every
        # text with its kept groups as group tokens, each spliced back as
        # its own tokens, are the tokens of the text
        stream = load_stream(monkeypatch)
        contexts = {ring: fresh_context(ring) for ring in RINGS}
        texts = [*stream_texts(stream, seed + 1_000_003, 1, tmp_path, "warm"), *stream_texts(stream, seed, 10, tmp_path, "req")]
        groups = 0
        for ring, text in texts:
            tokens = tokenize(text, contexts[ring].holds)
            groups += sum(kind == "group" for kind, _, _ in tokens)
            assert ungrouped(tokens) == tokenize(text), text
            parse_and_evaluate(text, contexts[ring])
        assert groups > 1000

    def test_hostile_texts_read_in_linear_time(self):
        # every '(' tries to match a group of at most three levels, and
        # fails or ends within them, so a text of MAX_TEXT_LENGTH characters
        # is read in about 0.1 s; a rescan of the rest at each '(' would
        # take minutes
        warm = fresh_context("Hb")
        kept = "(b1 + b2 + b1*b2)"
        value_of(f"2*({kept} - (b1 + (b2 - b1)))", warm)
        n = MAX_TEXT_LENGTH
        # a kept group of reach 12 at depth 95 is read from its tokens at
        # each occurrence
        far = "(b1 - b2 - b1*b2 - b2 - b1 - b2 - b1 - b2 - b1 - b2 - b1 - b2)"
        value_of(far, warm)
        assert kept_value(warm, far, MAX_NESTING - 95) is None and kept_value(warm, far)[1] == 12
        repeated = " + ".join([far] * ((n - 190) // (len(far) + 3)))
        deep = "(" * 95 + repeated.ljust(n - 190) + ")" * 95
        texts = [
            "(" * n,
            "(" * (n - 2) + "b1",
            "(" * (n // 2) + kept + ")" * (n // 2),
            "(((" + "b1+" * n,
            "(((" + " " * n,
            "(((" + " " * (n - 5) + "b1",
            "(" + " " * (n - 4) + "b1)",
            "(" + kept * n,
            "(" + "(b1)" * n,
            ("(" + "b1+" * 10) * n,
            ("(((" + kept) * n,
            ("(((b1 + (b2 - b1)" + kept) * n,
            deep,
        ]
        assert len(deep) == n
        for text in texts:
            text = text[:n]
            start = time.perf_counter()
            got = steps_outcome(text, warm)
            assert time.perf_counter() - start < 2, text[:40]
            assert got == steps_outcome(text, fresh_context("Hb")), text[:40]

    @pytest.mark.parametrize("ring", sorted(MEMO_GROUPS))
    def test_hits_equal_the_fresh_reading(self, ring):
        context = fresh_context(ring)
        for text in MEMO_GROUPS[ring]:
            reading = value_of(text, fresh_context(ring))
            assert kept_value(context, text) is None
            # read from its tokens, then kept: hits at any depth
            for depth in (0, 3, 1, 0):
                assert value_of("(" * depth + text + ")" * depth, context) == reading
                assert kept_value(context, text) == (reading, reach_of(text))

    @pytest.mark.parametrize("seed", [0, 1, 2, 1009])
    def test_timed_stream_texts_read_warm_as_fresh(self, seed, tmp_path, monkeypatch):
        # after the benchmark's warm-up, each timed text reads as in a
        # context that keeps nothing, and many of its groups are hits
        stream = load_stream(monkeypatch)
        warm, cold = {}, {}
        for ring in RINGS:
            warm[ring], cold[ring] = fresh_context(ring), fresh_context(ring)
            monkeypatch.setattr(cold[ring], "keep", lambda text, value: None)
        for ring, text in stream_texts(stream, seed + 1_000_003, 1, tmp_path, "warm"):
            parse_and_evaluate(text, warm[ring])
        hits = 0
        for ring, text in stream_texts(stream, seed, 10, tmp_path, "req"):
            hits += sum(kind == "group" for kind, _, _ in tokenize(text, warm[ring].holds))
            assert steps_outcome(text, warm[ring]) == steps_outcome(text, cold[ring]), text
        assert not any(context._kept for context in cold.values())
        assert hits > 1500

    def test_an_alias_group_is_kept_with_its_two_term_value(self, monkeypatch):
        context = fresh_context("Hb")
        reads = []
        keep = context.keep
        monkeypatch.setattr(context, "keep", lambda text, value: reads.append(text) or keep(text, value))
        b1, b2 = B_RING.gens()
        text = " + ".join(["(b3*b1)"] * 50 + ["(b1*b2)"] * 50)
        assert parse_and_evaluate(text, context) == 50 * (b1 + b2) * b1 + 50 * b1 * b2
        assert set(reads) == {"(b3*b1)", "(b1*b2)"} and list(context._kept) == ["(b3*b1)", "(b1*b2)"]
        # the hit is the alias group's two-term value, as its factors read
        # one by one give it
        assert kept_value(context, "(b3*b1)") == (value_of("b3 * b1", fresh_context("Hb")), 1)
        reads.clear()
        assert parse_and_evaluate(text, context) == 50 * (b1 + b2) * b1 + 50 * b1 * b2
        assert reads == []

    def test_a_group_that_a_text_repeats_is_a_hit_in_later_texts(self, monkeypatch):
        context = fresh_context("Hb")
        reads = []
        keep = context.keep
        monkeypatch.setattr(context, "keep", lambda text, value: reads.append(text) or keep(text, value))
        group, outer = "(b1 + b2 + b1*b2)", "((b1 + b2 + b1*b2) - b1)"
        text = " + ".join([group] * 50 + [outer] * 50)
        expected = value_of(text, ConvolvingPolynomialContext(B_RING, context.aliases))
        # the first text reads each of its groups, and the context keeps
        # each group once, in the order it first read them
        assert value_of(text, context) == expected
        assert set(reads) == {group, outer} and list(context._kept) == [group, outer]
        # a later text reads none of them
        reads.clear()
        assert value_of(text, context) == expected and reads == []

    def test_a_group_of_another_coefficient_is_kept(self, monkeypatch):
        plain = PolynomialContext(B_RING)
        aliases = {"m": parse_and_evaluate("-b1", plain), "h": parse_and_evaluate("1/2*b1", plain)}
        context = PolynomialContext(B_RING, aliases)
        names = []
        variable = context.variable
        monkeypatch.setattr(context, "variable", lambda name, pos: names.append(name) or variable(name, pos))
        texts = ("(m*b2)", "(b2*m^3)", "(h*b2)", "(m*h)")
        for text in texts:
            reading = value_of(text, PolynomialContext(B_RING, aliases))
            for hit in (False, True):
                names.clear()
                assert value_of(text, context) == reading
                assert kept_value(context, text) == (reading, 1)
                # a hit reads none of the group's names
                assert bool(names) != hit
        assert list(context._kept) == list(texts)

    def test_the_memo_stays_within_its_bound(self):
        # groups of 7 tokens inside, each kept: the count runs out first
        context = CharacterContext()
        kept = [f"(y1^{i}*y2^-{j})" for i in range(1, 40) for j in range(1, 40)]
        assert len(kept) > MAX_KEPT
        for text in kept:
            assert value_of(text, context) == value_of(text, CharacterContext())
            assert len(context._kept) <= MAX_KEPT
        assert list(context._kept) == kept[:MAX_KEPT] and kept[-1] not in context._kept
        assert_charges_cover_sizes(context)
        # groups of 462 terms each: the bytes run out before the count does
        fresh = CharacterContext()
        groups = [f"((y1 + y2 + y3 + y4 + y5 + {i})^6)" for i in range(1, 60)]
        for text in groups:
            assert value_of(text, fresh) == value_of(text, CharacterContext())
            assert_charges_cover_sizes(fresh)
        assert groups[0] in fresh._kept and groups[-1] not in fresh._kept
        assert len(fresh._kept) < len(groups) * 2 < MAX_KEPT

    def test_a_kept_group_left_of_a_long_sum_is_charged_as_read(self):
        group = "(b1 + b2 + b1*b2)"
        terms = [f"b1^{i % 50 + 2}*b2^{i // 50}" for i in range(2000)]
        text = " + ".join([group, *terms])
        fresh = PolynomialContext(B_RING)
        # the sum adds each one-term right operand into the group's own
        # dict, one term-digit per `+`, whether the group is read or a hit
        charge = spent_on(group, fresh) + sum(spent_on(t, fresh) for t in terms) + len(terms)
        warm = PolynomialContext(B_RING)
        for _ in range(3):
            assert spent_on(text, warm) == charge == spent_on(text, PolynomialContext(B_RING))
        assert group in warm._kept
        # a kept read-only leaf stays one: the sum copies it and reads both
        # operands, as `b1+b2` does
        leaf = PolynomialContext(B_RING)
        for _ in range(3):
            assert spent_on("((b1)) + b2", leaf) == spent_on("b1+b2", leaf) == 2
        assert type(leaf.recall("((b1))", MAX_NESTING)[0]) is not dict

    def test_a_changed_hit_does_not_change_a_later_hit(self):
        context = CharacterContext()
        group = "(y1 + y2 + y3)"
        reading = value_of(group, CharacterContext())
        assert value_of(group, context) == reading
        first, *_ = context.recall(group, MAX_NESTING)
        first.clear()
        assert kept_value(context, group) == (reading, 1)
        for _ in range(3):
            # the sum adds y4 and -y1 into the dict of the group's hit
            assert parse_and_evaluate(f"{group} + y4 - y1", context) == y(2) + y(3) + y(4)
            assert kept_value(context, group) == (reading, 1)

    def test_a_group_whose_reading_raises_is_never_kept(self):
        context = fresh_context("RT")
        texts = ("(y1 + 1/2)", "(y1 + (y2)^-1*(y1 + y2)^-1)", "(y1 + z)")
        for text in texts:
            expected = steps_outcome(f"y2 + {text}", fresh_context("RT"))
            for _ in range(2):
                assert steps_outcome(f"y2 + {text}", context) == expected and expected[0] == "ParseError"
        # only the groups read before the error are kept
        assert list(context._kept) == ["(y2)", "(y1 + y2)"]

    @pytest.mark.parametrize("seed", [0, 1, 2, 1009])
    def test_every_timed_stream_group_read_before_is_a_hit(self, seed, tmp_path, monkeypatch):
        # after the warm-up of the benchmark's stream, a timed group of any
        # size is a hit exactly when the warm-up or an earlier timed text
        # held it, and what it recalls is what a fresh context keeps for it:
        # the memo never runs out on the stream.  The groups first met in the
        # timed pass carry a coefficient drawn for that request, such as
        # (-3*(y1 + y2 + ...)*(y1*y2 + ...)), around groups that are hits
        stream = load_stream(monkeypatch)
        contexts = {ring: fresh_context(ring) for ring in RINGS}
        read = {ring: set() for ring in RINGS}
        for ring, text in stream_texts(stream, seed + 1_000_003, 1, tmp_path, "warm"):
            parse_and_evaluate(text, contexts[ring])
            read[ring].update(groups_of(text))
        hits = misses = 0
        for ring, text in stream_texts(stream, seed, 10, tmp_path, "req"):
            for group in groups_of(text):
                kept = kept_value(contexts[ring], group)
                assert (kept is not None) == (group in read[ring]), group
                if kept is not None:
                    fresh = fresh_context(ring)
                    value_of(group, fresh)
                    assert kept == kept_value(fresh, group), group
                hits, misses = hits + (kept is not None), misses + (kept is None)
            parse_and_evaluate(text, contexts[ring])
            read[ring].update(groups_of(text))
        assert hits > 2000 and misses * 5 < hits


# -- the grammar through the command line --------------------------------------------


@functools.lru_cache(maxsize=None)
def hostile_leaves(names):
    """Leaves at the parser's bounds, as verbatim text in a Var: a name to a
    power of up to MAX_EXPONENT, a literal of about MAX_LITERAL_DIGITS
    digits, and a name in parentheses nested about MAX_NESTING deep."""
    name = st.sampled_from(names)
    powers = st.builds("({}^{})".format, name, st.integers(-MAX_EXPONENT, MAX_EXPONENT))
    literals = st.integers(MAX_LITERAL_DIGITS - 1, MAX_LITERAL_DIGITS + 1).map(lambda n: f"({'7' * n})")
    depths = st.integers(MAX_NESTING - 2, MAX_NESTING + 1)
    nested = st.builds(lambda n, d: "(" * d + n + ")" * d, name, depths)
    return st.one_of(powers, literals, nested).map(lambda text: Var(text, 0))


# gkm-check's HT pre-check substitutes each entry into four generator images,
# two of them of several terms, and builds their powers up to the entry's
# degree: rho2^80 takes seconds and hundreds of MB there, and a power of
# rho2 near MAX_EXPONENT more memory than a test may take.  So HT entries of
# a higher degree are only expanded.
HT_CHECKED_DEGREE = 40


def cli_outcome(argv):
    """main's exit code and stderr; a traceback fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestGrammarThroughTheCli:
    """Any text of the grammar, hostile leaves included, ends in exit 0, 1
    or 2 as an ``expand`` and as a ``gkm-check`` entry, and exit 2 prints
    one ``error:`` line."""

    @pytest.mark.parametrize("ring", sorted(STEP_NAMES))
    @given(data=st.data())
    @settings(max_examples=30, deadline=5000)
    def test_every_text_exits_0_1_or_2(self, ring, data, tmp_path_factory):
        names = STEP_NAMES[ring]
        text = to_text(data.draw(ast_nodes(names, hostile=True)))
        runs, checked = [["expand", "--ring", ring, "--", text]], True
        if ring == "HT":
            with contextlib.suppress(ParseError):
                checked = parse_and_evaluate(text, _context_for(ring)).total_degree() <= HT_CHECKED_DEGREE
        if checked:
            path = tmp_path_factory.getbasetemp() / f"grammar-{ring}.json"
            entries = {name: "0" for name in SIGMA3_NAMES}
            entries["s1"] = text
            path.write_text(json.dumps({"ring": ring, "entries": entries}), encoding="utf-8")
            runs.append(["gkm-check", "--ring", ring, "--file", str(path)])
        for argv in runs:
            code, err = cli_outcome(argv)
            assert code in (0, 1, 2), (argv, code)
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            else:
                assert err == "", (argv, err)
