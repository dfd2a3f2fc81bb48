"""Expression grammar: tokenizing, parsing, printing, evaluation.

The syntax-tree evaluator and the character-loop tokenizer that the parser
replaced live on here as references (``reference_evaluate``,
``reference_tokenize``), with the syntax tree itself: ``parse`` runs the
package's parser with a builder that makes tree nodes, and ``to_text``
prints a tree back as grammar-conforming text.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagoct.cohomology import B_RING, E_RING
from flagoct.gkm import RHO_RING
from flagoct.ktheory import Character, x_character, y, y_inverse
from flagoct.poly import Polynomial, RingMismatchError
from flagoct.parsing import (
    CharacterContext,
    MAX_EXPONENT,
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    MAX_POWER_DIGITS,
    MAX_POWER_TERMS,
    MAX_PRODUCT_PAIRS,
    MAX_RESULT_DIGITS,
    MAX_TEXT_LENGTH,
    ParseError,
    PolynomialContext,
    Token,
    parse_and_evaluate,
    tokenize,
    _Parser,
)


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
            tokens.append(Token("number", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], i))
            i = j
            continue
        if ch in ops:
            tokens.append(Token(ch, ch, i))
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
    if value.support_size() != 1:
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


class TestTokenizer:
    def test_positions_recorded(self):
        toks = tokenize("b1 + 2")
        assert [t.text for t in toks] == ["b1", "+", "2"]
        assert [t.pos for t in toks] == [0, 3, 5]

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


def ast_nodes(names=("b1", "b2", "y1", "y5")):
    return st.recursive(
        leaf_nodes(names),
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
            got = Polynomial._of(E_RING, *ctx.power((p.packed, p.den, bits), k, 0)[:2])
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
            terms, den, _ = v
            return terms, den, max([den, *map(abs, terms.values())]).bit_length()

        for _ in range(150):
            left, right = value(), value()
            for op in (ctx.add, ctx.sub, ctx.mul):
                terms, den, bits = op(left, right, 0)
                assert bits >= max([den, *map(abs, terms.values())]).bit_length()
            terms, den, bits = ctx.power(left, rng.randint(2, 5), 0)
            assert bits >= max([den, *map(abs, terms.values())]).bit_length()

    def test_long_sums_are_bounded_by_their_own_digits(self):
        # each sum's projected bound gains a bit; past the limit the sum's
        # own digits are read, and these stay small
        ctx = PolynomialContext(B_RING)
        b1, b2 = B_RING.gens()
        assert parse_and_evaluate("+".join(["b1"] * 20_000), ctx) == 20_000 * b1
        text = " + ".join(["1/2*b1", "1/3*b2"] * 3_000)
        assert parse_and_evaluate(text, ctx) == 1500 * b1 + 1000 * b2
        assert parse_and_evaluate("-".join(["y1"] * 20_001), CharacterContext()) == y(1).scale(-19_999)


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
