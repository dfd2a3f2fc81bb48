"""Text grammar for ring elements, shared by the CLI and the file formats.

Grammar (whitespace insignificant)::

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := ('-')* atom ('^' ('-')? integer)?
    atom    := rational | identifier | '(' expr ')'
    rational:= integer ('/' positive-integer)?

Identifiers and exponent rules depend on the evaluation context:

* polynomial contexts (coefficient rings Q[b1,b2], Q[rho1..rho4],
  Z[X1..X4], ...) reject negative exponents;
* the character context accepts y1..y5 with integer (possibly negative)
  exponents and requires integer coefficients.

Parentheses and unary minus signs nest at most ``MAX_NESTING`` deep.  A
numeric literal has at most ``MAX_LITERAL_DIGITS`` digits.  An exponent is
at most ``MAX_EXPONENT``, and a power whose result could have more than
``MAX_POWER_TERMS`` terms is refused before it is computed.
Errors carry the 0-based character position for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, List, Optional, Tuple, Union

from .poly import PolyRing, Polynomial

# Parsing recurses once per parenthesis and evaluation once per unary minus,
# so their combined nesting is capped well inside the interpreter's
# recursion limit.
MAX_NESTING = 100

# `^` is bounded twice: by the size of its exponent, and by the number of
# terms its result can have.  A t-term base raised to the k-th power has at
# most C(t+k-1, k) terms (the monomials of degree k in t letters); that
# projection is checked before the power is computed.
MAX_EXPONENT = 1000
MAX_POWER_TERMS = 2_000

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

_OPS = {"+", "-", "*", "^", "/", "(", ")"}


@dataclass(frozen=True)
class Token:
    kind: str  # 'number', 'ident', or the operator character itself
    text: str
    pos: int


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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
        if ch in _OPS:
            tokens.append(Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
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


def _literal(tok: Token) -> int:
    digits = tok.text.lstrip("0") or "0"
    if len(digits) > MAX_LITERAL_DIGITS:
        raise ParseError(
            f"numeric literal longer than {MAX_LITERAL_DIGITS} digits", tok.pos
        )
    return int(digits)


class _Parser:
    def __init__(self, tokens: List[Token], length: int):
        self.tokens = tokens
        self.i = 0
        self.length = length
        self.depth = 0

    def peek(self) -> Optional[Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.length)
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

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while True:
            tok = self.peek()
            if tok is None or tok.kind not in ("+", "-"):
                return node
            self.next()
            rhs = self.parse_term()
            node = BinOp(tok.kind, node, rhs, tok.pos)

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "*":
                return node
            self.next()
            rhs = self.parse_factor()
            node = BinOp("*", node, rhs, tok.pos)

    def parse_factor(self) -> Node:
        negations = 0
        first = self.peek()
        while self.peek() is not None and self.peek().kind == "-":
            negations += 1
            self.enter(self.next())
        node = self.parse_atom()
        self.depth -= negations
        tok = self.peek()
        if tok is not None and tok.kind == "^":
            self.next()
            sign = 1
            if self.peek() is not None and self.peek().kind == "-":
                sign = -1
                self.next()
            num = self.expect("number")
            digits = num.text.lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds {MAX_EXPONENT}", num.pos)
            node = Pow(node, sign * int(digits), tok.pos)
        for _ in range(negations):
            node = Neg(node, first.pos)
        return node

    def parse_atom(self) -> Node:
        tok = self.next()
        if tok.kind == "number":
            num, den = _literal(tok), 1
            nxt = self.peek()
            if nxt is not None and nxt.kind == "/":
                self.next()
                den_tok = self.expect("number")
                den = _literal(den_tok)
                if den == 0:
                    raise ParseError("zero denominator", den_tok.pos)
            return Num(Fraction(num, den), tok.pos)
        if tok.kind == "ident":
            return Var(tok.text, tok.pos)
        if tok.kind == "(":
            self.enter(tok)
            node = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return node
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)


def parse(text: str) -> Node:
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty expression", 0)
    parser = _Parser(tokens, len(text))
    node = parser.parse_expr()
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(f"unexpected trailing token {trailing.text!r}", trailing.pos)
    return node


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


class PolynomialContext:
    """Evaluate into a polynomial ring; optional alias identifiers expand to
    fixed polynomials (e.g. b3 = b1 + b2)."""

    def __init__(self, ring: PolyRing, aliases: Optional[Dict[str, Polynomial]] = None):
        self.ring = ring
        self.aliases = aliases or {}

    def constant(self, value: Fraction, pos: int) -> Polynomial:
        return self.ring.const(value)

    def variable(self, name: str, pos: int) -> Polynomial:
        if name in self.ring.names:
            return self.ring.var(name)
        if name in self.aliases:
            return self.aliases[name]
        known = ", ".join(list(self.ring.names) + sorted(self.aliases))
        raise ParseError(f"unknown variable {name!r} (known: {known})", pos)

    def power(self, value: Polynomial, n: int, pos: int) -> Polynomial:
        if n < 0:
            raise ParseError("negative exponents are not allowed in this ring", pos)
        return value**n


class CharacterContext:
    """Evaluate into the character ring on y1..y5; negative exponents invert
    unit monomials."""

    def constant(self, value: Fraction, pos: int):
        from .ktheory import Character

        if value.denominator != 1:
            raise ParseError("character coefficients must be integers", pos)
        return Character.constant(value.numerator)

    def variable(self, name: str, pos: int):
        from .ktheory import y

        if len(name) == 2 and name[0] == "y" and name[1] in "12345":
            return y(int(name[1]))
        raise ParseError(f"unknown variable {name!r} (known: y1..y5)", pos)

    def power(self, value, n: int, pos: int):
        if n >= 0:
            return value**n
        inv = _invert_character(value)
        if inv is None:
            raise ParseError(
                "only unit monomials can be raised to negative powers", pos
            )
        return inv ** (-n)


def _invert_character(value):
    from .ktheory import Character

    if value.support_size() != 1:
        return None
    ((key, coeff),) = value.terms.items()
    if coeff not in (1, -1):
        return None
    return Character({tuple(-k for k in key): coeff})


def evaluate(node: Node, context):
    # A flat sum or product parses to a left-nested BinOp chain as long as the
    # input, so its left spine is walked in a loop, not by recursion.
    spine: List[BinOp] = []
    while isinstance(node, BinOp):
        spine.append(node)
        node = node.left
    if isinstance(node, Num):
        value = context.constant(node.value, node.pos)
    elif isinstance(node, Var):
        value = context.variable(node.name, node.pos)
    elif isinstance(node, Neg):
        value = -evaluate(node.operand, context)
    elif isinstance(node, Pow):
        base = evaluate(node.base, context)
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
        right = evaluate(op.right, context)
        if op.op == "+":
            value = value + right
        elif op.op == "-":
            value = value - right
        else:
            value = value * right
    return value


def parse_and_evaluate(text: str, context):
    return evaluate(parse(text), context)
