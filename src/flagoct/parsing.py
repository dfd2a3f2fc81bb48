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
once.  The context keeps the value of each parenthesized group, of any
size, by its text (``MAX_KEPT``), and the tokenizer makes a group that an
earlier text of the context read one token, without reading inside it, so a
group that a later text repeats is not read again.  A kept value is used
only where the group's reach, the number of '(' and '-' in its text, fits
under ``MAX_NESTING``; elsewhere the group is read from its tokens.
A sum whose right operand is one term over 1 adds that term straight into a
left operand the text owns.

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
A whole text is refused at the operator where its work passes
``MAX_WORK``.
Errors carry the 0-based character position for diagnostics; evaluation
errors are raised as the parser reaches them, so with several faults in one
text the first in reading order is reported.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import repeat
from math import comb, gcd, log10
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .ktheory import CHAR_PACKING, Character, y
from .poly import PolyRing, Polynomial, ResourceLimitError, RingMismatchError, Terms
from .poly import add_into, add_scaled, lowest_terms, mul_terms, neg_terms, pow_scaled

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

# Each step above is bounded, but a text can chain many of them.  So a text
# is also bounded by its work in term-digits, summed over its operators: each
# `*` and `^` adds the term pairs it multiplies times the digits of its
# coefficients, and each `+` and `-` the terms it reads times the digits of
# its result (those of its right operand alone when it adds into its left).
# Each value carries the work that built it, and an operator whose value's
# work would pass this is refused, before it is computed (a sum, once it is).
MAX_WORK = 20_000_000

# A numeric literal has at most this many digits, leading zeros aside.  The
# bound sits well inside Python's own limit on int() of a decimal string
# (4300 digits), which would otherwise end the parse in a ValueError.
MAX_LITERAL_DIGITS = 1000

# An evaluation context keeps the value of every parenthesized group that it
# reads, by its text, while it holds fewer than MAX_KEPT values and their
# charge stays within MAX_KEPT_BYTES; past either, a group is read from its
# tokens at each occurrence.  A value is charged at least the bytes that
# sys.getsizeof counts for it:
# * 800 for the headers of its text (76) and its dict (400, which holds up
#   to 5 terms), its slot in the memo (at most 80: a 16-byte entry and 2
#   bytes of index, with at most 6 index slots per value), its tuple (80) and
#   its four ints besides the numerators (at most 4 * 32 and their digits);
# * 4 per character of its text (a character takes at most 4 bytes);
# * 1 per 7 bits of its bit bound, for the denominator's digits (an int takes
#   at most 28 bytes and 4 per 30 bits);
# * per term 128, and 1 per 7 bits of the largest key and of the bit bound:
#   the term's place in the dict (at most 60: a 24-byte entry and 4 bytes of
#   index, with at most 3 index slots per term), its key and its numerator.
# So one context keeps at most MAX_KEPT_BYTES, 2 MB, of values.
MAX_KEPT = 1024
MAX_KEPT_BYTES = 2_000_000


class ParseError(ValueError):
    """Syntax or context error, with the offending character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# -- tokens ------------------------------------------------------------------


# Whitespace, then one of: a number (decimal digits, the characters int()
# reads; str.isdigit also takes '²', which int() refuses), an identifier, a
# group, an operator, or any other character, which is an error.  \w is
# exactly str.isalnum() or '_'; an identifier must also start with a letter
# or '_', which tokenize() checks.  Trailing whitespace is stripped first:
# the pattern fails there after trying every shorter run of it, at every
# start, which is quadratic in the run's length.
# A group is a '(' and its ')' with at most two levels of parentheses
# between them.  Each alternative inside starts with its own character, so a
# failed match backs off in one step per character, and a character lies
# inside at most three groups whose match reaches it: the pattern reads a
# text in linear time.
_GROUP = r"\((?:[^()]|\((?:[^()]|\([^()]*\))*\))*\)"
_TOKEN = re.compile(rf"(\s*)(?:(\d+)|([^\W\d]\w*)|({_GROUP})|([-+*^/()])|(\S))")


def tokenize(text: str, holds: Optional[Callable[[str], bool]] = None) -> List[Tuple[str, str, int]]:
    """The tokens of ``text`` as plain ``(kind, text, pos)`` tuples; the kind
    is 'number', 'ident', 'group' or the operator character itself.  A group
    (see ``_GROUP``) for whose text ``holds`` is true is one token, and its
    inside is not read; every other group is read as its parentheses and the
    tokens between them."""
    tokens: List[Tuple[str, str, int]] = []
    _tokenize_into(tokens, text, 0, len(text.rstrip()), holds)
    return tokens


def _tokenize_into(tokens: List[Tuple[str, str, int]], text: str, pos: int, stop: int, holds) -> None:
    """Append the tokens of ``text[pos:stop]``, which ends in no whitespace
    (:func:`tokenize`)."""
    append = tokens.append
    for space, number, ident, group, op, other in _TOKEN.findall(text, pos, stop):
        pos += len(space)
        if op:
            append((op, op, pos))
            pos += 1
        elif number:
            append(("number", number, pos))
            pos += len(number)
        elif ident and (ident[0].isalpha() or ident[0] == "_"):
            append(("ident", ident, pos))
            pos += len(ident)
        elif group:
            end = pos + len(group)
            if holds is not None and holds(group):
                append(("group", group, pos))
            else:
                append(("(", "(", pos))
                _tokenize_into(tokens, text, pos + 1, pos + len(group[:-1].rstrip()), holds)
                append((")", ")", end - 1))
            pos = end
        else:
            raise ParseError(f"unexpected character {(ident or other)[0]!r}", pos)


def _shown(token: Tuple[str, str, int]) -> str:
    """The text of a token as an error names it: a group by its '('."""
    return "(" if token[0] == "group" else token[1]


def _literal(digits: str, pos: int) -> int:
    digits = digits.lstrip("0") or "0"
    if len(digits) > MAX_LITERAL_DIGITS:
        raise ParseError(f"numeric literal longer than {MAX_LITERAL_DIGITS} digits", pos)
    return int(digits)


class _Parser:
    """Recursive descent over the tokens of one text, which end in an
    ``('end', '', len(text))`` token.  Each production hands its parts to
    ``builder`` as soon as they are read, so the builder's value of the
    whole text is made in one pass.

    A group is one token when ``builder.holds(text)`` is true for its text
    (:func:`tokenize`), and ``builder.recall(text, room)`` gives the value
    the builder keeps for it when the group's reach fits in the ``room``
    left under ``MAX_NESTING``, or None; then the group is read from its own
    tokens, which raises the same error at the same place.  The value that
    the tokens of a group give is handed to ``builder.keep(text, value)``."""

    def __init__(self, text: str, builder):
        if len(text) > MAX_TEXT_LENGTH:
            raise ParseError(
                f"expression longer than {MAX_TEXT_LENGTH} characters", MAX_TEXT_LENGTH
            )
        self.tokens = tokenize(text, builder.holds)
        if not self.tokens:
            raise ParseError("empty expression", 0)
        self.tokens.append(("end", "", len(text)))
        self.text = text
        self.i = self.depth = 0
        self.builder = builder

    def next(self) -> Tuple[str, str, int]:
        tok = self.tokens[self.i]
        if tok[0] == "end":
            raise ParseError("unexpected end of input", tok[2])
        self.i += 1
        return tok

    def enter(self, pos: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"expression nested more than {MAX_NESTING} deep", pos)

    def expect(self, kind: str) -> Tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {_shown(tok)!r}", tok[2])
        return tok

    def parse(self):
        value = self.parse_expr()
        tok = self.tokens[self.i]
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing token {_shown(tok)!r}", tok[2])
        return value

    def parse_expr(self):
        value = self.parse_term()
        tokens, add, sub = self.tokens, self.builder.add, self.builder.sub
        while True:
            kind, _, pos = tokens[self.i]
            if kind == "+":
                self.i += 1
                value = add(value, self.parse_term(), pos)
            elif kind == "-":
                self.i += 1
                value = sub(value, self.parse_term(), pos)
            else:
                return value

    def parse_term(self):
        tokens, mul = self.tokens, self.builder.mul
        value = self.parse_factor()
        while True:
            kind, _, pos = tokens[self.i]
            if kind != "*":
                return value
            self.i += 1
            value = mul(value, self.parse_factor(), pos)

    def parse_factor(self):
        tokens, start = self.tokens, self.i
        while tokens[self.i][0] == "-":
            self.enter(self.next()[2])
        negations = self.i - start
        value = self.parse_atom()
        self.depth -= negations
        kind, _, pos = tokens[self.i]
        if kind == "^":
            self.i += 1
            sign = 1
            if tokens[self.i][0] == "-":
                sign = -1
                self.i += 1
            _, digits, at = self.expect("number")
            digits = digits.lstrip("0") or "0"
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds {MAX_EXPONENT}", at)
            value = self.builder.power(value, sign * int(digits), pos)
        for _ in range(negations):
            value = self.builder.neg(value, tokens[start][2])
        return value

    def parse_atom(self):
        kind, text, pos = self.next()
        if kind == "ident":
            return self.builder.variable(text, pos)
        if kind == "number":
            num, den = _literal(text, pos), 1
            if self.tokens[self.i][0] == "/":
                self.i += 1
                _, digits, at = self.expect("number")
                den = _literal(digits, at)
                if den == 0:
                    raise ParseError("zero denominator", at)
            return self.builder.constant(num, den, pos)
        if kind == "group":
            value = self.builder.recall(text, MAX_NESTING - self.depth)
            if value is not None:
                return value
            # read the group's own tokens, then go on after it
            tokens, after = self.tokens, self.i
            self.tokens, self.i = [], 0
            _tokenize_into(self.tokens, self.text, pos, pos + len(text), None)
            self.tokens.append(("end", "", pos + len(text)))
            value = self.parse_atom()
            self.tokens, self.i = tokens, after
            return value
        if kind == "(":
            self.enter(pos)
            value = self.parse_expr()
            close = self.expect(")")[2]
            self.builder.keep(self.text[pos : close + 1], value)
            self.depth -= 1
            return value
        raise ParseError(f"unexpected token {text!r}", pos)


# -- evaluation contexts ----------------------------------------------------------------


# A value while a text is evaluated: the packed terms (a dict, or a cached
# leaf's read-only view) and positive denominator, in lowest terms, as a
# Polynomial stores them (characters keep the denominator 1), an upper bound
# on the bit length of every numerator and of the denominator, and the work
# that built it.
Value = Tuple[Mapping[int, int], int, int, int]


def _digits(bits: int) -> int:
    """At least the number of decimal digits of an int of ``bits`` bits
    (1234/4096 > log10 2)."""
    return (bits * 1234 >> 12) + 1


def _power_pairs(size: int, k: int) -> int:
    """The term pairs that square-and-multiply (``pow_terms``) makes for a
    ``size``-term base to the power k, from the projected term counts
    C(size+j-1, j) of the powers f^j it multiplies."""
    if size == 1:  # one pair per squaring and per multiplication, none at k = 0
        return k.bit_length() - 1 + k.bit_count() if k else 0
    pairs, done, step = 0, 0, 1  # f^done is the product so far
    while k:
        t = comb(size + step - 1, min(step, size - 1))
        if k & 1:
            pairs += comb(size + done - 1, min(done, size - 1)) * t
            done += step
        k >>= 1
        if k:
            pairs += t * t
            step *= 2
    return pairs


def _over_budget(pos: int) -> ParseError:
    return ParseError(f"this expression takes more than {MAX_WORK} term-digits of work", pos)


def _bits(terms: Terms, den: int) -> int:
    """The bit length of the largest numerator or of the denominator."""
    if not terms:
        return 0
    return max(max(terms.values()), -min(terms.values()), den).bit_length()


class _TermContext:
    """Evaluation on packed term dicts over a denominator, the builder of
    :func:`parse_and_evaluate`.

    Subclasses give ``packing``, ``constant``, the ``known`` text of an
    unknown variable's message, the inverse of a base raised to a negative
    power, and ``wrap`` for the result.  The key of v^-1 is
    ``2 * zero - key(v)``, as the packing is linear; a packing without a bias
    (``zero == 0``) has no inverses.
    Variable leaves are cached and shared, and read-only
    (``MappingProxyType``); every ``dict`` in a value is the text's own, made
    by one step and held by that value alone, so a sum adds into its left
    operand when that is a ``dict`` whose denominator the right one's
    divides.

    Each step bounds the bits of its result from the bounds of its operands
    (a sum also reads the coefficients it changed).  Only when that bound
    passes ``MAX_RESULT_DIGITS`` are the operands' (or a sum's) own bits
    read, and only when these pass it too is the step refused.  Each step
    also adds its own work to that of its operands (``MAX_WORK``).
    """

    packing = None

    def _set_leaves(self, leaves: Dict[str, Value]) -> None:
        self._variables = leaves
        # group text -> (terms, den, bits, work, reach) of its value
        self._kept: Dict[str, Tuple[Mapping[int, int], int, int, int, int]] = {}
        self._kept_bytes = 0

    def variable(self, name: str, pos: int) -> Value:
        try:
            return self._variables[name]
        except KeyError:
            raise ParseError(f"unknown variable {name!r} (known: {self.known})", pos) from None

    def holds(self, text: str) -> bool:
        """Whether the context keeps a value for the group ``text``."""
        return text in self._kept

    def recall(self, text: str, room: int) -> Optional[Value]:
        """The value kept for the group ``text``, when its reach is at most
        ``room``; else None.

        A value, its bits and its work depend only on the text, so the
        context keeps them by it (:meth:`keep`): the texts that one context
        reads, such as the entries of a tuple, share their groups."""
        kept = self._kept.get(text)
        if kept is None or kept[4] > room:
            return None
        terms, den, bits, work, _ = kept
        # a fresh dict, as a reading makes: a sum adds into the dicts of the
        # text's own values, and would copy a read-only one
        return (terms.copy() if type(terms) is dict else terms), den, bits, work

    def keep(self, text: str, value: Value) -> None:
        """Keep the value that the tokens of the group ``text`` gave, within
        ``MAX_KEPT`` values and ``MAX_KEPT_BYTES``; a text already kept (read
        again where its reach did not fit) is charged once.

        With it goes the group's reach, the number of '(' and '-' in its
        text: each level that a reading of the group nests into is entered
        at one of them, so no reading of it goes deeper than that."""
        terms, den, bits, work = value
        if len(self._kept) < MAX_KEPT and text not in self._kept:
            key_bits = max(terms, default=0).bit_length()
            size = 800 + 4 * len(text) + bits // 7 + len(terms) * (128 + (key_bits + bits) // 7)
            if self._kept_bytes + size <= MAX_KEPT_BYTES:
                reach = text.count("(") + text.count("-")
                self._kept[text] = (dict(terms) if type(terms) is dict else terms), den, bits, work, reach
                self._kept_bytes += size

    def neg(self, value: Value, pos: int) -> Value:
        terms, den, bits, work = value
        return neg_terms(terms), den, bits, work

    def add(self, left: Value, right: Value, pos: int) -> Value:
        return self._sum(left, right[0], right, pos)

    def sub(self, left: Value, right: Value, pos: int) -> Value:
        return self._sum(left, neg_terms(right[0]), right, pos)

    @staticmethod
    def _sum(left: Value, g: Terms, right: Value, pos: int) -> Value:
        """left + g, where ``right`` gives g's denominator and work."""
        (f, df, bf, wf), (_, dg, _, wg) = left, right
        if len(g) == 1 and df == dg == 1 and type(f) is dict:
            # one term over 1, as most terms of an expanded text are
            ((key, c),) = g.items()
            f[key] = s = f.get(key, 0) + c
            if not s:
                del f[key]
            terms, den, read, bits = f, 1, 1, max(bf, abs(s).bit_length())
        else:
            read = len(f) + len(g)
            if df % dg == 0 and type(f) is dict:
                # f keeps its denominator, so g adds into it; f is in lowest
                # terms and only the coefficients at g's keys change, so the
                # sum is too unless they share a factor with df
                if df != dg:
                    g = {e: c * (df // dg) for e, c in g.items()}
                terms, den, read = add_into(f, g), df, len(g)
                if df != 1 and gcd(df, *map(terms.get, g, repeat(0))) != 1:
                    terms, den = lowest_terms(terms, df)
            else:
                terms, den = add_scaled(f, df, g, dg)
            if df % dg == 0:
                # only the coefficients at g's keys changed (a common factor
                # taken out of all of them only shrinks them), so the bound of
                # a long chain of sums does not gain a bit at each step, and
                # neither does the work charged for it
                bits = max(bf, max(map(abs, map(terms.get, g, repeat(0))), default=0).bit_length())
            else:
                bits = _bits(terms, den)
        if _digits(bits) > MAX_RESULT_DIGITS:
            bits = _bits(terms, den)
            if _digits(bits) > MAX_RESULT_DIGITS:
                raise ParseError(
                    f"this sum has coefficients of more than {MAX_RESULT_DIGITS} digits", pos
                )
        work = wf + wg + read * _digits(bits)
        if work > MAX_WORK:
            raise _over_budget(pos)
        return terms, den, bits, work

    def mul(self, left: Value, right: Value, pos: int) -> Value:
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
        # each numerator of the product is a sum of at most `pairs` products
        # of two numerators, and its denominator is the product of two
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
            terms, den = lowest_terms(mul_terms(f, g, self.packing), df * dg)
        except ResourceLimitError as exc:
            raise ParseError(str(exc), pos) from None
        return terms, den, bits, work

    def power(self, value: Value, n: int, pos: int) -> Value:
        (terms, den, _, work), k = value, abs(n)
        size = len(terms)
        if size > 1 and comb(size + k - 1, min(k, size - 1)) > MAX_POWER_TERMS:
            raise ParseError(
                f"a {size}-term base to the power {k} may have more than "
                f"{MAX_POWER_TERMS} terms",
                pos,
            )
        # (F/den)^k = F^k / den^k: every numerator of the power is at most
        # S^k for the sum S of |F|, and the denominator is den^k
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
            terms, den = pow_scaled(*value[:2], k, self.packing)
        except ResourceLimitError as exc:
            raise ParseError(str(exc), pos) from None
        return terms, den, _bits(terms, den), work

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
        self._set_leaves({
            name: (MappingProxyType(value.packed), value.den, _bits(value.packed, value.den), 0)
            for name, value in {**self.aliases, **dict(zip(ring.names, ring.gens()))}.items()
        })
        self.known = ", ".join(list(ring.names) + sorted(self.aliases))

    def constant(self, num: int, den: int, pos: int) -> Value:
        if not num:
            return {}, 1, 0, 0
        if den != 1:
            c = Fraction(num, den)
            num, den = c.numerator, c.denominator
        return {self.packing.zero: num}, den, max(num, den).bit_length(), 0

    def wrap(self, value: Value) -> Polynomial:
        return Polynomial._of(self.ring, dict(value[0]), value[1])


class CharacterContext(_TermContext):
    """Evaluate into the character ring on y1..y5; negative exponents invert
    unit monomials."""

    packing = CHAR_PACKING
    known = "y1..y5"

    def __init__(self):
        self._set_leaves({f"y{j}": (MappingProxyType(y(j).packed), 1, 1, 0) for j in range(1, 6)})

    def constant(self, num: int, den: int, pos: int) -> Value:
        n, r = divmod(num, den)
        if r:
            raise ParseError("character coefficients must be integers", pos)
        return ({CHAR_PACKING.zero: n} if n else {}), 1, n.bit_length(), 0

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
                return {inverse: coeff}, 1, 1, value[3]
        raise ParseError("only unit monomials can be raised to negative powers", pos)

    def wrap(self, value: Value) -> Character:
        return Character._of(dict(value[0]))


def parse_and_evaluate(text: str, context):
    """The value of ``text`` in ``context``, evaluated while it is parsed."""
    return context.wrap(_Parser(text, context).parse())
