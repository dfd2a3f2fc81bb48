"""Text grammar for ring elements, shared by the CLI and the file formats.

Grammar (whitespace insignificant)::

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := ('-')* atom ('^' ('-')? integer)?
    atom    := rational | identifier | '(' expr ')'
    rational:= integer ('/' positive-integer)?

An integer is a run of decimal digits.  Identifiers and exponent rules
depend on the evaluation context:

* polynomial contexts (coefficient rings Q[b1,b2], Q[rho1..rho4],
  Z[X1..X4], ...) reject negative exponents;
* the character context accepts y1..y5 with integer (possibly negative)
  exponents and requires integer coefficients.

One recursive-descent parser serves two builders: :func:`parse` builds a
syntax tree (printed back by :func:`to_text`), and :func:`parse_and_evaluate`
evaluates while it parses, on plain term dicts, and wraps the result once.

A text has at most ``MAX_TEXT_LENGTH`` characters.  Parentheses and unary
minus signs nest at most ``MAX_NESTING`` deep.  A numeric literal has at
most ``MAX_LITERAL_DIGITS`` digits.  An exponent is at most
``MAX_EXPONENT``; a power whose result could have more than
``MAX_POWER_TERMS`` terms or coefficients of more than ``MAX_POWER_DIGITS``
digits, and a product of more than ``MAX_PRODUCT_PAIRS`` term pairs, are
refused before they are computed.
Errors carry the 0-based character position for diagnostics; evaluation
errors are raised as the parser reaches them, so with several faults in one
text the first in reading order is reported.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, log10
from typing import Dict, List, NamedTuple, Optional, Union

from .ktheory import Character, y
from .poly import PolyRing, Polynomial, RingMismatchError, Terms
from .poly import add_terms, mul_terms, neg_terms, pow_terms

# Parsing recurses once per parenthesis, and printing a tree once per unary
# minus, so their combined nesting is capped well inside the interpreter's
# recursion limit.
MAX_NESTING = 100

# `^` is bounded twice: by the size of its exponent, and by the number of
# terms its result can have.  A t-term base raised to the k-th power has at
# most C(t+k-1, k) terms (the monomials of degree k in t letters); that
# projection is checked before the power is computed.
MAX_EXPONENT = 1000
MAX_POWER_TERMS = 2_000

# `^` is also bounded by the size of its coefficients.  Write the base as F/L,
# F integral and L the lcm of its denominators, and let S be the sum of the
# absolute values of F's coefficients: every coefficient of the k-th power
# has a numerator of at most S^k and a denominator of at most L^k.  The
# digits of S^k * L^k are projected before the power is computed.
MAX_POWER_DIGITS = 1_500

# `*` is bounded by its work: factors of t1 and t2 terms make t1*t2 term
# pairs, each one coefficient product, and a product of more pairs than this
# is refused before it is computed.
MAX_PRODUCT_PAIRS = 50_000

# A text has at most this many characters; a longer one is refused before it
# is tokenized.
MAX_TEXT_LENGTH = 100_000

# A numeric literal has at most this many digits, leading zeros aside.  The
# bound sits well inside Python's own limit on int() of a decimal string
# (4300 digits), which would otherwise end the parse in a ValueError.
MAX_LITERAL_DIGITS = 1000


class ParseError(ValueError):
    """Syntax or context error, with the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# -- tokens ------------------------------------------------------------------


class Token(NamedTuple):
    kind: str  # 'number', 'ident', 'end', or the operator character itself
    text: str
    pos: int


# Whitespace, then one of: a number (decimal digits, the characters int()
# reads; str.isdigit also takes '²', which int() refuses), an identifier, an
# operator, or any other character, which is an error.  \w is exactly
# str.isalnum() or '_'; an identifier must also start with a letter or '_',
# which tokenize() checks.  Trailing whitespace is stripped first: the
# pattern fails there after trying every shorter run of it, at every start,
# which is quadratic in the run's length.
_TOKEN = re.compile(r"(\s*)(?:(\d+)|([^\W\d]\w*)|([-+*^/()])|(\S))")


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    pos = 0
    for space, number, ident, op, other in _TOKEN.findall(text.rstrip()):
        pos += len(space)
        if op:
            kind, tok = op, op
        elif number:
            kind, tok = "number", number
        elif ident and (ident[0].isalpha() or ident[0] == "_"):
            kind, tok = "ident", ident
        else:
            raise ParseError(f"unexpected character {(ident or other)[0]!r}", pos)
        tokens.append(Token(kind, tok, pos))
        pos += len(tok)
    return tokens


# -- syntax tree ----------------------------------------------------------------


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


def _literal(tok: Token) -> int:
    digits = tok.text.lstrip("0") or "0"
    if len(digits) > MAX_LITERAL_DIGITS:
        raise ParseError(
            f"numeric literal longer than {MAX_LITERAL_DIGITS} digits", tok.pos
        )
    return int(digits)


class _Parser:
    """Recursive descent over the tokens of one text.  Each production hands
    its parts to ``builder`` as soon as they are read, so the builder's value
    of the whole text (a tree or an evaluated element) is made in one pass."""

    def __init__(self, text: str, builder):
        if len(text) > MAX_TEXT_LENGTH:
            raise ParseError(
                f"expression longer than {MAX_TEXT_LENGTH} characters", MAX_TEXT_LENGTH
            )
        self.tokens = tokenize(text)
        if not self.tokens:
            raise ParseError("empty expression", 0)
        self.tokens.append(Token("end", "", len(text)))
        self.i = 0
        self.depth = 0
        self.builder = builder

    def next(self) -> Token:
        tok = self.tokens[self.i]
        if tok.kind == "end":
            raise ParseError("unexpected end of input", tok.pos)
        self.i += 1
        return tok

    def enter(self, tok: Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"expression nested more than {MAX_NESTING} deep", tok.pos
            )

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.pos)
        return tok

    def parse(self):
        value = self.parse_expr()
        trailing = self.tokens[self.i]
        if trailing.kind != "end":
            raise ParseError(
                f"unexpected trailing token {trailing.text!r}", trailing.pos
            )
        return value

    def parse_expr(self):
        value = self.parse_term()
        tokens, add, sub = self.tokens, self.builder.add, self.builder.sub
        while True:
            tok = tokens[self.i]
            if tok.kind == "+":
                self.i += 1
                value = add(value, self.parse_term(), tok.pos)
            elif tok.kind == "-":
                self.i += 1
                value = sub(value, self.parse_term(), tok.pos)
            else:
                return value

    def parse_term(self):
        value = self.parse_factor()
        tokens, mul = self.tokens, self.builder.mul
        while True:
            tok = tokens[self.i]
            if tok.kind != "*":
                return value
            self.i += 1
            value = mul(value, self.parse_factor(), tok.pos)

    def parse_factor(self):
        tokens = self.tokens
        first = tokens[self.i]
        negations = 0
        while tokens[self.i].kind == "-":
            negations += 1
            self.enter(self.next())
        value = self.parse_atom()
        self.depth -= negations
        tok = tokens[self.i]
        if tok.kind == "^":
            self.i += 1
            sign = 1
            if tokens[self.i].kind == "-":
                sign = -1
                self.i += 1
            num = self.expect("number")
            digits = num.text.lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds {MAX_EXPONENT}", num.pos)
            value = self.builder.power(value, sign * int(digits), tok.pos)
        for _ in range(negations):
            value = self.builder.neg(value, first.pos)
        return value

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "number":
            num, den = _literal(tok), 1
            if self.tokens[self.i].kind == "/":
                self.i += 1
                den_tok = self.expect("number")
                den = _literal(den_tok)
                if den == 0:
                    raise ParseError("zero denominator", den_tok.pos)
            return self.builder.constant(num, den, tok.pos)
        if tok.kind == "ident":
            return self.builder.variable(tok.text, tok.pos)
        if tok.kind == "(":
            self.enter(tok)
            value = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return value
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)


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


# -- evaluation contexts ----------------------------------------------------------------


class _TermContext:
    """Evaluation on plain term dicts, the builder of :func:`parse_and_evaluate`.

    Subclasses give the unit ``one``, the leaves (``constant``, ``variable``),
    the inverse of a base raised to a negative power, and ``wrap`` for the
    result.  Leaf dicts are cached and shared, so no step may change a dict
    it is given.
    """

    one: Terms

    def neg(self, value: Terms, pos: int) -> Terms:
        return neg_terms(value)

    def add(self, left: Terms, right: Terms, pos: int) -> Terms:
        return add_terms(left, right)

    def sub(self, left: Terms, right: Terms, pos: int) -> Terms:
        return add_terms(left, neg_terms(right))

    def mul(self, left: Terms, right: Terms, pos: int) -> Terms:
        if len(left) * len(right) > MAX_PRODUCT_PAIRS:
            raise ParseError(
                f"factors of {len(left)} and {len(right)} terms make more than "
                f"{MAX_PRODUCT_PAIRS} term pairs",
                pos,
            )
        return mul_terms(left, right)

    def power(self, value: Terms, n: int, pos: int) -> Terms:
        terms, k = len(value), abs(n)
        if terms > 1 and comb(terms + k - 1, min(k, terms - 1)) > MAX_POWER_TERMS:
            raise ParseError(
                f"a {terms}-term base to the power {k} may have more than "
                f"{MAX_POWER_TERMS} terms",
                pos,
            )
        if value and k > 1:
            den = lcm(*(c.denominator for c in value.values()))
            norm = sum(abs(c.numerator) * (den // c.denominator) for c in value.values())
            if k * log10(norm * den) > MAX_POWER_DIGITS:
                raise ParseError(
                    f"this base to the power {k} may have coefficients of more "
                    f"than {MAX_POWER_DIGITS} digits",
                    pos,
                )
        if n < 0:
            value = self.inverse(value, pos)
        if k == 1:
            return value
        # (F/L)^k = F^k / L^k, with F and L as in MAX_POWER_DIGITS: the
        # power runs on ints, and each coefficient is divided by L^k once
        den = lcm(*(c.denominator for c in value.values()))
        integral = {e: c.numerator * (den // c.denominator) for e, c in value.items()}
        power = pow_terms(integral, k, self.one)
        if den == 1:
            return power
        scale = den**k
        return {e: Fraction(c, scale) for e, c in power.items()}

    def inverse(self, value: Terms, pos: int) -> Terms:
        raise ParseError("negative exponents are not allowed in this ring", pos)


class PolynomialContext(_TermContext):
    """Evaluate into a polynomial ring; optional alias identifiers expand to
    fixed polynomials (e.g. b3 = b1 + b2).

    Coefficients stay ints while they are integers and become Fractions where
    a rational literal brings one in; ``wrap`` makes them all Fractions.
    """

    def __init__(self, ring: PolyRing, aliases: Optional[Dict[str, Polynomial]] = None):
        self.ring = ring
        self.aliases = aliases or {}
        for name, value in self.aliases.items():
            if value.ring != ring:
                raise RingMismatchError(f"alias {name!r} is not in ring {ring.names}")
        self.one = {(0,) * ring.nvars: 1}
        self._variables = {name: value.terms for name, value in self.aliases.items()}
        for i, name in enumerate(ring.names):
            self._variables[name] = {tuple(int(j == i) for j in range(ring.nvars)): 1}

    def constant(self, num: int, den: int, pos: int) -> Terms:
        if not num:
            return {}
        return {(0,) * self.ring.nvars: num if den == 1 else Fraction(num, den)}

    def variable(self, name: str, pos: int) -> Terms:
        try:
            return self._variables[name]
        except KeyError:
            known = ", ".join(list(self.ring.names) + sorted(self.aliases))
            raise ParseError(f"unknown variable {name!r} (known: {known})", pos) from None

    def wrap(self, terms: Terms) -> Polynomial:
        return Polynomial._of(
            self.ring,
            {e: c if type(c) is Fraction else Fraction(c) for e, c in terms.items()},
        )


class CharacterContext(_TermContext):
    """Evaluate into the character ring on y1..y5; negative exponents invert
    unit monomials."""

    def __init__(self):
        self.one = Character.one().terms
        self._variables = {f"y{j}": y(j).terms for j in range(1, 6)}

    def constant(self, num: int, den: int, pos: int) -> Terms:
        n, r = divmod(num, den)
        if r:
            raise ParseError("character coefficients must be integers", pos)
        return {(0, 0, 0, 0): n} if n else {}

    def variable(self, name: str, pos: int) -> Terms:
        try:
            return self._variables[name]
        except KeyError:
            raise ParseError(f"unknown variable {name!r} (known: y1..y5)", pos) from None

    def inverse(self, value: Terms, pos: int) -> Terms:
        if len(value) == 1:
            ((key, coeff),) = value.items()
            if coeff in (1, -1):
                return {tuple(-k for k in key): coeff}
        raise ParseError("only unit monomials can be raised to negative powers", pos)

    def wrap(self, terms: Terms) -> Character:
        return Character._of(dict(terms))


def parse_and_evaluate(text: str, context):
    """The value of ``text`` in ``context``, evaluated while it is parsed."""
    return context.wrap(_Parser(text, context).parse())
