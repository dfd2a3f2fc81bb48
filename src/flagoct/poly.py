"""Sparse multivariate polynomials over the rationals.

Monomials are dense exponent tuples keyed to the ordered variable list of a
:class:`PolyRing`; coefficients are :class:`fractions.Fraction` (exact, lowest
terms by construction).  The term order used everywhere is graded reverse
lexicographic (grevlex) on raw exponents.  Each variable additionally carries
a grading degree (used for weighted-degree queries and graded dimension
counts) which is metadata only and does not affect the term order.

The arithmetic itself lives in the sparse-term kernels at the end of the
module (sum, negation, product, power, ring map, text, and reduction by
leading terms).  They work on plain term dicts and are shared with the
integer characters of :mod:`flagoct.ktheory`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, sub
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

Exponents = Tuple[int, ...]
Scalar = Union[int, Fraction]
Terms = Dict[Exponents, Scalar]
Divisor = Tuple[Exponents, Scalar, List[Tuple[Exponents, Scalar]]]


class RingMismatchError(ValueError):
    """Operands belong to different polynomial rings."""


class ResourceLimitError(RuntimeError):
    """A computation exceeded its configured size bounds."""


def grevlex_key(exponents: Exponents) -> Tuple:
    """Sort key; ``max`` over keys picks the grevlex-leading monomial."""
    return (sum(exponents),) + tuple(-e for e in reversed(exponents))


@dataclass(frozen=True)
class PolyRing:
    """An ordered tuple of named variables, each with a grading degree."""

    names: Tuple[str, ...]
    degrees: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.degrees):
            raise ValueError("names and degrees must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        if any(d < 1 for d in self.degrees):
            raise ValueError("grading degrees must be positive")

    @staticmethod
    def make(names: Sequence[str], degrees: Optional[Sequence[int]] = None) -> "PolyRing":
        names = tuple(names)
        degs = tuple(degrees) if degrees is not None else tuple(1 for _ in names)
        return PolyRing(names, degs)

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"no variable {name!r} in ring {self.names}") from None

    def var(self, name: str) -> "Polynomial":
        exps = [0] * self.nvars
        exps[self.index(name)] = 1
        return Polynomial(self, {tuple(exps): Fraction(1)})

    def gens(self) -> Tuple["Polynomial", ...]:
        return tuple(self.var(n) for n in self.names)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c: Scalar) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def monomial(self, exponents: Sequence[int], coeff: Scalar = 1) -> "Polynomial":
        exps = tuple(int(e) for e in exponents)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent tuple {exponents!r} for ring {self.names}")
        c = Fraction(coeff)
        return Polynomial(self, {exps: c} if c else {})

    def weighted_degree(self, exponents: Exponents) -> int:
        return sum(e * d for e, d in zip(exponents, self.degrees))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        vs = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"PolyRing({vs})"


class Polynomial:
    """Immutable sparse polynomial with Fraction coefficients."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: Mapping[Exponents, Scalar]):
        self.ring = ring
        self.terms: Dict[Exponents, Fraction] = {
            e: Fraction(c) for e, c in terms.items() if c != 0
        }
        self._hash: Optional[int] = None

    @classmethod
    def _of(cls, ring: PolyRing, terms: Dict[Exponents, Fraction]) -> "Polynomial":
        """Wrap ``terms`` as they are (nonzero Fractions, as the kernels give)."""
        out = cls.__new__(cls)
        out.ring, out.terms, out._hash = ring, terms, None
        return out

    # -- basic protocol ----------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(
                f"operands in different rings: {self.ring.names} vs {other.ring.names}"
            )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.ring, neg_terms(self.terms))

    def __add__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        self._check(other)
        return Polynomial._of(self.ring, add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return self.ring.const(other) - self

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return self.ring.zero()
            return Polynomial._of(self.ring, {e: k * c for e, k in self.terms.items()})
        self._check(other)
        return Polynomial._of(self.ring, mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Polynomial":
        c = Fraction(other)
        if c == 0:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return self * (Fraction(1) / c)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return Polynomial._of(self.ring, pow_terms(self.terms, n, self.ring.one().terms))

    # -- queries -----------------------------------------------------------

    def total_degree(self) -> int:
        """Maximum exponent sum; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree(self) -> int:
        """Maximum weighted (graded) degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self.ring.weighted_degree(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        """True when all terms share one weighted degree (zero counts)."""
        degs = {self.ring.weighted_degree(e) for e in self.terms}
        return len(degs) <= 1

    def leading_exponents(self) -> Exponents:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=grevlex_key)

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_exponents()]

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        return self / self.leading_coefficient()

    def coefficient(self, exponents: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exponents), Fraction(0))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.ring.nvars, Fraction(0))

    def is_integral(self) -> bool:
        """True when every coefficient is an integer."""
        return all(c.denominator == 1 for c in self.terms.values())

    def homogeneous_component(self, weighted_degree: int) -> "Polynomial":
        return Polynomial(
            self.ring,
            {
                e: c
                for e, c in self.terms.items()
                if self.ring.weighted_degree(e) == weighted_degree
            },
        )

    def sorted_terms(self) -> Iterator[Tuple[Exponents, Fraction]]:
        """Terms in descending grevlex order."""
        for e in sorted(self.terms, key=grevlex_key, reverse=True):
            yield e, self.terms[e]

    # -- substitution / evaluation ------------------------------------------

    def evaluate(self, values: Sequence[Scalar]) -> Fraction:
        if len(values) != self.ring.nvars:
            raise ValueError("wrong number of values")
        vals = [Fraction(v) for v in values]
        total = Fraction(0)
        for e, c in self.terms.items():
            prod = c
            for v, k in zip(vals, e):
                if k:
                    prod *= v**k
            total += prod
        return total

    def substitute(
        self,
        images: Mapping[str, "Polynomial"],
        target: Optional[PolyRing] = None,
    ) -> "Polynomial":
        """Ring map sending each variable to ``images[name]``.

        Every variable of the source ring must have an image; all images must
        live in one ring (``target`` if given).

        The map runs over Z: with f = F/D and every image G_i/d over one
        common d, f(G/d) = sum_e F_e d^(N-|e|) G^e / (D d^N), N the top total
        degree of f.  The sum is one integer ring map, and each coefficient
        of the result becomes a Fraction once, at the end.
        """
        missing = [n for n in self.ring.names if n not in images]
        if missing:
            raise KeyError(f"substitute: no image for variables {missing}")
        rings = {p.ring for p in images.values()}
        if len(rings) != 1:
            raise RingMismatchError("substitute: images live in different rings")
        tring = rings.pop()
        if target is not None and target != tring:
            raise RingMismatchError("substitute: images not in requested target ring")
        img = [images[n].terms for n in self.ring.names]
        big_d = lcm(*(c.denominator for c in self.terms.values()))
        d = lcm(*(c.denominator for g in img for c in g.values()))
        top = max(map(sum, self.terms), default=0)
        scaled = {
            e: c.numerator * (big_d // c.denominator) * d ** (top - sum(e))
            for e, c in self.terms.items()
        }
        integral = [{m: c.numerator * (d // c.denominator) for m, c in g.items()} for g in img]
        den = big_d * d**top
        out = map_terms(scaled, integral, {(0,) * tring.nvars: 1})
        return Polynomial._of(tring, {m: Fraction(v, den) for m, v in out.items()})

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        names = self.ring.names
        return terms_text(
            (c, "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k))
            for e, c in self.sorted_terms()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Polynomial({self})"


# -- linear forms and their products ----------------------------------------


@dataclass(frozen=True)
class LinearForm:
    """A degree-one form sum(coeffs[i] * ring.names[i])."""

    ring: PolyRing
    coeffs: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.ring.nvars:
            raise ValueError("coefficient count does not match ring")
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))

    @staticmethod
    def from_polynomial(p: Polynomial) -> "LinearForm":
        coeffs = [Fraction(0)] * p.ring.nvars
        for e, c in p.terms.items():
            if sum(e) != 1:
                raise ValueError("polynomial is not a linear form")
            coeffs[e.index(1)] = c
        return LinearForm(p.ring, tuple(coeffs))

    def to_polynomial(self) -> Polynomial:
        out: Dict[Exponents, Fraction] = {}
        for i, c in enumerate(self.coeffs):
            if c:
                e = [0] * self.ring.nvars
                e[i] = 1
                out[tuple(e)] = c
        return Polynomial(self.ring, out)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def normalized(self) -> "LinearForm":
        """Scale so the first nonzero coefficient is 1 (canonical line rep)."""
        for c in self.coeffs:
            if c:
                return LinearForm(self.ring, tuple(x / c for x in self.coeffs))
        raise ValueError("zero form has no normalization")

    def is_proportional_to(self, other: "LinearForm") -> bool:
        if self.ring != other.ring:
            raise RingMismatchError("forms in different rings")
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        return self.normalized().coeffs == other.normalized().coeffs

    def __str__(self) -> str:
        return str(self.to_polynomial())


@dataclass(frozen=True)
class FormProduct:
    """A scalar times a product of linear forms (kept in factored shape)."""

    scalar: Fraction
    forms: Tuple[LinearForm, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "scalar", Fraction(self.scalar))
        rings = {f.ring for f in self.forms}
        if len(rings) > 1:
            raise RingMismatchError("factors live in different rings")

    @property
    def ring(self) -> PolyRing:
        if not self.forms:
            raise ValueError("empty product has no ring")
        return self.forms[0].ring

    @property
    def nfactors(self) -> int:
        return len(self.forms)

    def expand(self) -> Polynomial:
        out = self.ring.const(self.scalar)
        for f in self.forms:
            out = out * f.to_polynomial()
        return out

    def __str__(self) -> str:
        inner = " * ".join(f"({f})" for f in self.forms)
        if self.scalar == 1:
            return inner
        return f"{self.scalar} * {inner}"


def pairwise_coprime(
    products: Sequence[FormProduct],
) -> Tuple[bool, Optional[Tuple[int, int, LinearForm]]]:
    """Check no two products share a linear factor up to scalar.

    Returns ``(True, None)`` or ``(False, (i, j, shared_form))`` with the
    first shared factor found.
    """
    for i, j in itertools.combinations(range(len(products)), 2):
        for f in products[i].forms:
            for g in products[j].forms:
                if f.is_proportional_to(g):
                    return False, (i, j, f.normalized())
    return True, None


# -- assorted helpers ---------------------------------------------------------


def elementary_symmetric(i: int, *args: Polynomial) -> Polynomial:
    """The i-th elementary symmetric polynomial of the given arguments."""
    if not args:
        raise ValueError("need at least one argument")
    ring = args[0].ring
    for a in args:
        if a.ring != ring:
            raise RingMismatchError("arguments in different rings")
    if i < 0 or i > len(args):
        raise ValueError(f"elementary symmetric index {i} out of range")
    if i == 0:
        return ring.one()
    out = ring.zero()
    for combo in itertools.combinations(args, i):
        term = ring.one()
        for a in combo:
            term = term * a
        out = out + term
    return out


def exact_divide(f: Polynomial, g: Polynomial) -> Optional[Polynomial]:
    """Return q with f == q*g if g divides f exactly, else None.

    Single-divisor division by leading terms decides exact divisibility over
    a field regardless of monomial order, so no Groebner machinery is needed.
    """
    if f.ring != g.ring:
        raise RingMismatchError("dividend and divisor in different rings")
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    quotients = reduce_terms(f.terms, [divisor(g.terms, g.leading_exponents())])
    return None if quotients is None else Polynomial._of(f.ring, quotients[0])


# -- sparse-term kernels -------------------------------------------------------
#
# A term dict maps exponent tuples of one length to nonzero coefficients, all
# Fractions or all ints; keys may have negative entries (ktheory's lattice
# keys).  Polynomial and ktheory.Character are thin wrappers over these.


def add_terms(f: Mapping[Exponents, Scalar], g: Mapping[Exponents, Scalar]) -> Terms:
    """f + g, dropping cancelled terms."""
    out = dict(f)
    for e, c in g.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def neg_terms(f: Mapping[Exponents, Scalar]) -> Terms:
    return {e: -c for e, c in f.items()}


def mul_terms(f: Mapping[Exponents, Scalar], g: Mapping[Exponents, Scalar]) -> Terms:
    """f * g by convolution of the two term lists."""
    out: Terms = {}
    rhs = list(g.items())
    for e1, c1 in f.items():
        for e2, c2 in rhs:
            e = tuple(map(add, e1, e2))
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def pow_terms(f: Mapping[Exponents, Scalar], n: int, one: Terms) -> Terms:
    """f**n (n >= 0) by square-and-multiply; ``one`` is the unit."""
    out, base = one, f
    while n:
        if n & 1:
            out = mul_terms(out, base)
        n >>= 1
        if n:
            base = mul_terms(base, base)
    return out


def map_terms(f: Mapping[Exponents, Scalar], images: Sequence[Terms], one: Terms) -> Terms:
    """The image of f under the ring map sending variable i to ``images[i]``.

    ``one`` is the unit of the target.  The powers of each image are built
    once, by repeated multiplication, and shared by all terms of f.
    """
    powers = [[one, g] for g in images]
    out: Terms = {}
    for e, c in f.items():
        term = one
        for k, cache, g in zip(e, powers, images):
            if k:
                while len(cache) <= k:
                    cache.append(mul_terms(cache[-1], g))
                term = cache[k] if term is one else mul_terms(term, cache[k])
        for m, v in term.items():
            s = out.get(m, 0) + c * v
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def terms_text(terms: Iterable[Tuple[Scalar, str]]) -> str:
    """Signed sum of (coefficient, monomial text) pairs in the given order.

    An empty monomial text stands for the unit monomial; unit coefficients
    are not printed.
    """
    text = ""
    for c, mono in terms:
        a = abs(c)
        body = mono if mono and a == 1 else f"{a}*{mono}" if mono else str(a)
        if text:
            text += f" {'-' if c < 0 else '+'} {body}"
        else:
            text = ("-" if c < 0 else "") + body
    return text or "0"


def divisor(g: Mapping[Exponents, Scalar], lead: Exponents) -> Divisor:
    """g as (lead, lc, tail) for :func:`reduce_terms`, with leading exponent
    ``lead``: the leading coefficient and the other terms."""
    return lead, g[lead], [(e, c) for e, c in g.items() if e != lead]


def reduce_terms(
    f: Mapping[Exponents, Scalar],
    divisors: Sequence[Divisor],
    remainder: Optional[Terms] = None,
) -> Optional[List[Terms]]:
    """Reduce f by the leading terms of ``divisors``; return their quotients.

    Keys must be nonnegative (monomials); leading terms are grevlex-leading.
    Each step takes the grevlex-leading term of what is left of f and cancels
    it with the first divisor whose leading term reduces it: its leading
    monomial divides the term's, and, when its leading coefficient is an
    int, that coefficient divides the term's (division over Z; a Fraction
    leading coefficient divides over Q).  A term that no divisor reduces is
    moved to ``remainder`` when one is given, making the result a normal
    form; without one the loop stops and returns None, so that exact
    division fails at the first such term.
    """
    quotients: List[Terms] = [{} for _ in divisors]
    steps = list(zip(divisors, quotients))
    # what is left of f is updated in place, and a heap of negated grevlex
    # keys yields its leading term; a key whose term has cancelled is skipped
    # when popped.  Each step then costs O(len(divisor) log len(rest)), not
    # a scan and a copy of the whole rest.  The negated key of e is
    # (-|e|,) + e reversed, so e is the key's tail read backwards.
    rest = dict(f)
    heap = [(-sum(e),) + e[::-1] for e in rest]
    heapq.heapify(heap)
    while heap:
        e = heapq.heappop(heap)[:0:-1]
        lead = rest.pop(e, None)
        if lead is None:
            continue
        for (g_lead, g_lc, g_tail), quotient in steps:
            shift = tuple(map(sub, e, g_lead))
            if any(d < 0 for d in shift):
                continue
            if type(g_lc) is int:
                c, r = divmod(lead, g_lc)
                if r:
                    continue
            else:
                c = lead / g_lc
            quotient[shift] = c
            # every new term lies below e, as grevlex is a monomial order
            for eg, cg in g_tail:
                m = tuple(map(add, shift, eg))
                s = rest.get(m, 0) - c * cg
                if s:
                    if m not in rest:
                        heapq.heappush(heap, (-sum(m),) + m[::-1])
                    rest[m] = s
                else:
                    del rest[m]
            break
        else:
            if remainder is None:
                return None
            remainder[e] = lead
    return quotients
