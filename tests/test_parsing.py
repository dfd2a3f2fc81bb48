"""Expression grammar: tokenizing, parsing, printing, evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagoct.cohomology import B_RING, E_RING
from flagoct.ktheory import Character, x_character, y, y_inverse
from flagoct.parsing import (
    BinOp,
    CharacterContext,
    MAX_EXPONENT,
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    MAX_POWER_TERMS,
    Neg,
    Num,
    ParseError,
    PolynomialContext,
    Pow,
    Var,
    parse,
    parse_and_evaluate,
    to_text,
    tokenize,
)


class TestTokenizer:
    def test_positions_recorded(self):
        toks = tokenize("b1 + 2")
        assert [t.text for t in toks] == ["b1", "+", "2"]
        assert [t.pos for t in toks] == [0, 3, 5]

    def test_bad_character_position(self):
        with pytest.raises(ParseError) as err:
            tokenize("b1 $ b2")
        assert err.value.position == 3


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


def leaf_nodes():
    names = st.sampled_from(["b1", "b2", "y1", "y5"])
    numbers = st.one_of(
        st.integers(min_value=0, max_value=9).map(
            lambda n: Num(Fraction(n), 0)
        ),
        st.fractions(min_value=0, max_value=5, max_denominator=7).map(
            lambda q: Num(q, 0)
        ),
    )
    return st.one_of(names.map(lambda n: Var(n, 0)), numbers)


def ast_nodes():
    return st.recursive(
        leaf_nodes(),
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
