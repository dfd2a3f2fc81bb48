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

The recursive-descent parser hands each production to a builder as it is
read; :func:`parse_and_evaluate` uses an evaluation context as the builder,
so it evaluates while it parses, on plain term dicts, and wraps the result
once.

A text has at most ``MAX_TEXT_LENGTH`` characters.  Parentheses and unary
minus signs nest at most ``MAX_NESTING`` deep.  A numeric literal has at
most ``MAX_LITERAL_DIGITS`` digits.  An exponent is at most
``MAX_EXPONENT``; a power whose result could have more than
``MAX_POWER_TERMS`` terms or coefficients of more than ``MAX_POWER_DIGITS``
digits, and a product of more than ``MAX_PRODUCT_PAIRS`` term pairs or with
coefficients that could pass ``MAX_RESULT_DIGITS`` digits, are refused
before they are computed.  A sum or difference is refused when its
coefficients pass ``MAX_RESULT_DIGITS`` digits, and a product or power when
its exponents do not fit their packed fields (:class:`flagoct.poly.Packing`).
Errors carry the 0-based character position for diagnostics; evaluation
errors are raised as the parser reaches them, so with several faults in one
text the first in reading order is reported.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, log10
from typing import Dict, List, NamedTuple, Optional, Tuple

from .ktheory import CHAR_PACKING, Character, y
from .poly import PolyRing, Polynomial, ResourceLimitError, RingMismatchError, Terms
from .poly import add_scaled, lowest_terms, mul_terms, neg_terms, pow_scaled

# Parentheses and unary minus signs together nest at most this deep, well
# inside the interpreter's recursion limit (parsing recurses once per
# parenthesis).
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

# Every value a text builds has numerators and a denominator of at most this
# many digits, below Python's 4300-digit limit on str() of an int, so that
# every accepted value prints.  A product's coefficients have at most the
# digits of the two factors' largest numerators (or denominators) plus those
# of the pair count, and that projection is checked before the product is
# computed; a sum is checked once it is computed.
MAX_RESULT_DIGITS = 4_000

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
    of the whole text is made in one pass."""

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


# -- evaluation contexts ----------------------------------------------------------------


# A value while a text is evaluated: the packed term dict and positive
# denominator, in lowest terms, as a Polynomial stores them (characters keep
# the denominator 1), and an upper bound on the bit length of every
# numerator and of the denominator.
Value = Tuple[Terms, int, int]


def _digits(bits: int) -> int:
    """At least the number of decimal digits of an int of ``bits`` bits
    (1234/4096 > log10 2)."""
    return (bits * 1234 >> 12) + 1


def _bits(terms: Terms, den: int) -> int:
    """The bit length of the largest numerator or of the denominator."""
    if not terms:
        return 0
    return max(max(terms.values()), -min(terms.values()), den).bit_length()


class _TermContext:
    """Evaluation on packed term dicts over a denominator, the builder of
    :func:`parse_and_evaluate`.

    Subclasses give ``packing``, the leaves (``constant``, ``variable``), the
    inverse of a base raised to a negative power, and ``wrap`` for the
    result.  Leaf dicts are cached and shared, so no step may change a dict
    it is given.

    Each step projects a bound on the bits of its result from the bounds of
    its operands.  Only when that projection passes ``MAX_RESULT_DIGITS``
    are the operands' (or a sum's) own bits read, and only when these pass
    it too is the step refused.
    """

    packing = None

    def neg(self, value: Value, pos: int) -> Value:
        terms, den, bits = value
        return neg_terms(terms), den, bits

    def add(self, left: Value, right: Value, pos: int) -> Value:
        return self._sum(left, right[0], right, pos)

    def sub(self, left: Value, right: Value, pos: int) -> Value:
        return self._sum(left, neg_terms(right[0]), right, pos)

    @staticmethod
    def _sum(left: Value, g: Terms, right: Value, pos: int) -> Value:
        """left + g, where ``right`` gives g's denominator and bound."""
        (f, df, bf), (_, dg, bg) = left, right
        terms, den = add_scaled(f, df, g, dg)
        # over one denominator a sum gains at most one bit; over two, each
        # numerator is first multiplied by the other denominator
        bits = max(bf, bg) + 1 if df == dg else bf + bg + 1
        if _digits(bits) > MAX_RESULT_DIGITS:
            bits = _bits(terms, den)
            if _digits(bits) > MAX_RESULT_DIGITS:
                raise ParseError(
                    f"this sum has coefficients of more than {MAX_RESULT_DIGITS} digits", pos
                )
        return terms, den, bits

    def mul(self, left: Value, right: Value, pos: int) -> Value:
        (f, df, bf), (g, dg, bg) = left, right
        pairs = len(f) * len(g)
        if pairs > MAX_PRODUCT_PAIRS:
            raise ParseError(
                f"factors of {len(f)} and {len(g)} terms make more than "
                f"{MAX_PRODUCT_PAIRS} term pairs",
                pos,
            )
        if not pairs:
            return {}, 1, 0
        # each numerator of the product is a sum of at most `pairs` products
        # of two numerators, and its denominator is the product of two
        bits = bf + bg + pairs.bit_length()
        if _digits(bits) > MAX_RESULT_DIGITS:
            bits = _bits(f, df) + _bits(g, dg) + pairs.bit_length()
            if _digits(bits) > MAX_RESULT_DIGITS:
                raise ParseError(
                    f"this product may have coefficients of more than {MAX_RESULT_DIGITS} digits",
                    pos,
                )
        try:
            terms, den = lowest_terms(mul_terms(f, g, self.packing), df * dg)
        except ResourceLimitError as exc:
            raise ParseError(str(exc), pos) from None
        return terms, den, bits

    def power(self, value: Value, n: int, pos: int) -> Value:
        (terms, den, _), k = value, abs(n)
        size = len(terms)
        if size > 1 and comb(size + k - 1, min(k, size - 1)) > MAX_POWER_TERMS:
            raise ParseError(
                f"a {size}-term base to the power {k} may have more than "
                f"{MAX_POWER_TERMS} terms",
                pos,
            )
        # (F/den)^k = F^k / den^k: every numerator of the power is at most
        # S^k for the sum S of |F|, and the denominator is den^k
        if terms and k > 1 and k * log10(sum(map(abs, terms.values())) * den) > MAX_POWER_DIGITS:
            raise ParseError(
                f"this base to the power {k} may have coefficients of more "
                f"than {MAX_POWER_DIGITS} digits",
                pos,
            )
        if n < 0:
            value = self.inverse(value, pos)
        if k == 1:
            return value
        try:
            terms, den = pow_scaled(*value[:2], k, self.packing)
        except ResourceLimitError as exc:
            raise ParseError(str(exc), pos) from None
        return terms, den, _bits(terms, den)

    def inverse(self, value: Value, pos: int) -> Value:
        raise ParseError("negative exponents are not allowed in this ring", pos)


class PolynomialContext(_TermContext):
    """Evaluate into a polynomial ring; optional alias identifiers expand to
    fixed polynomials (e.g. b3 = b1 + b2)."""

    def __init__(self, ring: PolyRing, aliases: Optional[Dict[str, Polynomial]] = None):
        self.ring = ring
        self.packing = ring.packing
        self.aliases = aliases or {}
        for name, value in self.aliases.items():
            if value.ring != ring:
                raise RingMismatchError(f"alias {name!r} is not in ring {ring.names}")
        self._variables = {
            name: (value.packed, value.den, _bits(value.packed, value.den))
            for name, value in {**self.aliases, **dict(zip(ring.names, ring.gens()))}.items()
        }

    def constant(self, num: int, den: int, pos: int) -> Value:
        if not num:
            return {}, 1, 0
        if den != 1:
            c = Fraction(num, den)
            num, den = c.numerator, c.denominator
        return {self.packing.zero: num}, den, max(num, den).bit_length()

    def variable(self, name: str, pos: int) -> Value:
        try:
            return self._variables[name]
        except KeyError:
            known = ", ".join(list(self.ring.names) + sorted(self.aliases))
            raise ParseError(f"unknown variable {name!r} (known: {known})", pos) from None

    def wrap(self, value: Value) -> Polynomial:
        return Polynomial._of(self.ring, dict(value[0]), value[1])


class CharacterContext(_TermContext):
    """Evaluate into the character ring on y1..y5; negative exponents invert
    unit monomials."""

    packing = CHAR_PACKING

    def __init__(self):
        self._variables = {f"y{j}": (y(j).packed, 1, 1) for j in range(1, 6)}

    def constant(self, num: int, den: int, pos: int) -> Value:
        n, r = divmod(num, den)
        if r:
            raise ParseError("character coefficients must be integers", pos)
        return ({CHAR_PACKING.zero: n} if n else {}), 1, n.bit_length()

    def variable(self, name: str, pos: int) -> Value:
        try:
            return self._variables[name]
        except KeyError:
            raise ParseError(f"unknown variable {name!r} (known: y1..y5)", pos) from None

    def inverse(self, value: Value, pos: int) -> Value:
        terms = value[0]
        if len(terms) == 1:
            ((key, coeff),) = terms.items()
            if coeff in (1, -1):
                # packing is linear: key(-k) = 2 key(0) - key(k), and its
                # fields are all in range unless one of k's was -bias
                inverse = 2 * CHAR_PACKING.zero - key
                try:
                    CHAR_PACKING.check_fields((inverse,))
                except ResourceLimitError as exc:
                    raise ParseError(str(exc), pos) from None
                return {inverse: coeff}, 1, 1
        raise ParseError("only unit monomials can be raised to negative powers", pos)

    def wrap(self, value: Value) -> Character:
        return Character._of(dict(value[0]))


def parse_and_evaluate(text: str, context):
    """The value of ``text`` in ``context``, evaluated while it is parsed."""
    return context.wrap(_Parser(text, context).parse())
