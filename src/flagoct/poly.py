"""Sparse multivariate polynomials over the rationals.

A :class:`Polynomial` holds integer numerators over one positive
denominator, in lowest terms, as :mod:`flagoct.scaled` does for vectors.
Each monomial is one int key: its exponent vector packed by the
:class:`Packing` of its :class:`PolyRing` (see there).  A product key is the
sum of two keys, integer order on keys is graded reverse lexicographic
(grevlex) order on exponents, and a divisibility test is one subtraction
checked against a guard-bit mask.  Each variable additionally carries a
grading degree (used for weighted-degree queries and graded dimension
counts) which is metadata only and does not affect the term order.

The arithmetic itself lives in the sparse-term kernels at the end of the
module (sum, negation, product, power, ring map, text, and reduction by
leading terms).  They work on plain dicts from packed keys to coefficients
and are shared with the integer characters of :mod:`flagoct.ktheory`.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import struct
from fractions import Fraction
from math import gcd, lcm
from operator import index, mul
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .scaled import Scalar, exact, numerators

Exponents = Tuple[int, ...]
Terms = Dict[int, Scalar]
Divisor = Tuple[int, Scalar, List[Tuple[int, Scalar]]]

# bits per packed exponent field (read back as 16-bit words); the top bit
# of each field is a guard bit
FIELD_BITS = 16


class RingMismatchError(ValueError):
    """Operands belong to different polynomial rings."""


class ResourceLimitError(RuntimeError):
    """A computation exceeded its configured size bounds."""


def grevlex_key(exponents: Exponents) -> Tuple:
    """Sort key; ``max`` over keys picks the grevlex-leading monomial."""
    return (sum(exponents),) + tuple(-e for e in reversed(exponents))


class Packing:
    """Exponent vectors of ``nvars`` entries, each packed into one int.

    Entry i, plus ``bias``, is the field v_i of ``FIELD_BITS`` bits at bit
    ``i * FIELD_BITS`` of R = sum(v_i << i*FIELD_BITS), and |v| = sum(v_i)
    sits above all fields.  The key is ``(|v| << nvars*FIELD_BITS) - R``.
    Then:

    * the key is linear in the vector, so the key of a product is the sum
      of the two keys less the key of the zero vector (``zero``, which is 0
      without a bias);
    * integer order on keys is grevlex order on vectors: the larger total
      degree first, then the smaller last entry, and so on;
    * a vector a divides b (a <= b entrywise) iff
      ``(key(a) - key(b)) & guard == 0``: the low bits of that difference
      are R(b - a), and the lowest negative field of b - a borrows into its
      own guard bit, the top bit of the field.

    A valid key has every field in [0, ``limit``] (guard bit clear); without
    a bias its total degree is at most ``limit`` as well, so that no field
    of a product or of a reduction step can pass it unseen.  A result that
    would leave that range raises :class:`ResourceLimitError`; it never
    wraps.
    """

    __slots__ = ("nvars", "bias", "shift", "low", "limit", "guard", "zero", "multipliers", "unpack")

    def __init__(self, nvars: int, bias: int = 0):
        self.nvars, self.bias = nvars, bias
        self.shift = nvars * FIELD_BITS
        self.low = (1 << self.shift) - 1
        self.limit = (1 << (FIELD_BITS - 1)) - 1
        offsets = range(0, self.shift, FIELD_BITS)
        self.guard = sum(1 << (o + FIELD_BITS - 1) for o in offsets)
        # key(e) = sum(e_i * ((1 << shift) - (1 << offset_i))) + key(0)
        self.multipliers = tuple((1 << self.shift) - (1 << o) for o in offsets)
        self.zero = bias * sum(self.multipliers)
        self.unpack = self._unpacker()

    def pack(self, exponents: Sequence[int]) -> int:
        """The key of one exponent vector; ``ValueError`` for a vector of the
        wrong length or with a negative entry where there is no bias,
        :class:`ResourceLimitError` for one that does not fit the fields."""
        if len(exponents) != self.nvars:
            raise ValueError(f"expected {self.nvars} exponents, got {len(exponents)}")
        if exponents:
            bias, limit = self.bias, self.limit
            if not bias and min(exponents) < 0:
                raise ValueError(f"negative exponent in {tuple(exponents)!r}")
            if (sum(exponents) if not bias else max(exponents) + bias) > limit or min(exponents) + bias < 0:
                raise ResourceLimitError(
                    f"exponents {tuple(exponents)!r} do not fit {FIELD_BITS}-bit fields"
                )
        return sum(map(mul, exponents, self.multipliers)) + self.zero

    def _unpacker(self) -> Callable[[int], Exponents]:
        """``unpack(key)``, the exponent vector of a valid key: the fields
        are R = -key mod 2**shift, read as little-endian unsigned 16-bit
        words."""
        fields = struct.Struct(f"<{self.nvars}H").unpack
        low, size, bias = self.low, 2 * self.nvars, self.bias
        if not bias:
            return lambda key: fields((-key & low).to_bytes(size, "little"))
        return lambda key: tuple([v - bias for v in fields((-key & low).to_bytes(size, "little"))])

    def degree(self, key: int) -> int:
        """The sum of the fields of ``key`` (its total degree without a bias)."""
        return (key + self.low) >> self.shift

    def check_degree(self, key: int) -> None:
        """Refuse a key (of a product of leading terms) whose total degree is
        past ``limit``; without a bias that bounds every field."""
        if (key + self.low) >> self.shift > self.limit:
            raise ResourceLimitError(
                f"a total degree past {self.limit} does not fit {FIELD_BITS}-bit fields"
            )

    def check_fields(self, keys: Iterable[int]) -> None:
        """Refuse keys with a field out of range.  Exact for sums of two valid
        keys less ``zero``: their fields span fewer than 2**FIELD_BITS
        values, so the lowest bad field shows in its guard bit and no two
        vectors share a key."""
        low, guard = self.low, self.guard
        for k in keys:
            if -k & low & guard:
                raise ResourceLimitError(
                    f"a result exponent does not fit {FIELD_BITS}-bit fields"
                )

    def check_power(self, key: int, n: int) -> None:
        """Refuse the n-th power of a valid key where square-and-multiply
        would: its factors' exponents lie between 0 and the power's, so only
        the power's own total degree (no bias) or exponents can be past."""
        if not self.bias:  # a key of the power's total degree, all it reads
            return self.check_degree(n * self.degree(key) << self.shift)
        v = self.unpack(key)
        if n * max(v) + self.bias > self.limit or n * min(v) + self.bias < 0:
            raise ResourceLimitError(f"a result exponent does not fit {FIELD_BITS}-bit fields")


class PolyRing:
    """An ordered tuple of named variables, each with a grading degree."""

    __slots__ = ("names", "degrees", "packing", "_hash")

    def __init__(self, names: Tuple[str, ...], degrees: Tuple[int, ...]) -> None:
        if len(names) != len(degrees):
            raise ValueError("names and degrees must have equal length")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        if any(d < 1 for d in degrees):
            raise ValueError("grading degrees must be positive")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "degrees", degrees)
        # derived from the variable count and the fields, so not fields
        # themselves: equality and hashing stay those of (names, degrees)
        object.__setattr__(self, "packing", Packing(len(names)))
        object.__setattr__(self, "_hash", hash((names, degrees)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other is self:  # most comparisons: each ring is built once
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.names == other.names and self.degrees == other.degrees

    def __hash__(self) -> int:
        return self._hash

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
        return Polynomial._of(self, {self.packing.pack(exps): 1})

    def gens(self) -> Tuple["Polynomial", ...]:
        return tuple(self.var(n) for n in self.names)

    def zero(self) -> "Polynomial":
        return Polynomial._of(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c: Scalar) -> "Polynomial":
        return self.monomial((0,) * self.nvars, c)

    def monomial(self, exponents: Sequence[int], coeff: Scalar = 1) -> "Polynomial":
        exps = tuple(int(e) for e in exponents)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent tuple {exponents!r} for ring {self.names}")
        return Polynomial(self, {exps: coeff})

    def weighted_degree(self, exponents: Exponents) -> int:
        return sum(e * d for e, d in zip(exponents, self.degrees))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        vs = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"PolyRing({vs})"


class Polynomial:
    """Immutable sparse polynomial: integer numerators over one denominator.

    ``packed`` maps packed monomial keys to nonzero int numerators and
    ``den`` is a positive int with ``gcd(den, *numerators) == 1`` (1 for
    zero).  ``terms`` is a read-only view by exponent tuples with
    ``Fraction`` coefficients, built on each access.
    """

    __slots__ = ("ring", "packed", "den", "_hash")

    def __init__(self, ring: PolyRing, terms: Mapping[Exponents, Scalar]):
        pack = ring.packing.pack
        scalars = {}
        for e, c in terms.items():
            c = exact(c)
            if c:
                scalars[pack(e)] = c
        self.ring = ring
        self.packed, self.den = scaled_terms(scalars)
        self._hash: Optional[int] = None

    @classmethod
    def _of(cls, ring: PolyRing, packed: Dict[int, int], den: int = 1) -> "Polynomial":
        """Wrap ``packed`` over ``den`` as they are (lowest terms, as the
        kernels give them through :func:`lowest_terms`)."""
        out = cls.__new__(cls)
        out.ring, out.packed, out.den, out._hash = ring, packed, den, None
        return out

    @property
    def terms(self) -> Dict[Exponents, Fraction]:
        unpack, den = self.ring.packing.unpack, self.den
        if den == 1:
            return {unpack(k): Fraction(c) for k, c in self.packed.items()}
        return {unpack(k): Fraction(c, den) for k, c in self.packed.items()}

    def fraction_terms(self) -> Dict[int, Fraction]:
        """The packed terms with ``Fraction`` coefficients (for reductions
        over Q)."""
        den = self.den
        return {k: Fraction(c, den) for k, c in self.packed.items()}

    # -- basic protocol ----------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingMismatchError(
                f"operands in different rings: {self.ring.names} vs {other.ring.names}"
            )

    def __bool__(self) -> bool:
        return bool(self.packed)

    def is_zero(self) -> bool:
        return not self.packed

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.den == other.den and self.packed == other.packed

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.ring, self.den, frozenset(self.packed.items())))
        return self._hash

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self.ring, neg_terms(self.packed), self.den)

    def __add__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        self._check(other)
        return Polynomial._of(self.ring, *add_scaled(self.packed, self.den, other.packed, other.den))

    __radd__ = __add__

    def __sub__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return self.ring.const(other) - self

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._check(other)
            terms = mul_terms(self.packed, other.packed, self.ring.packing)
            return Polynomial._of(self.ring, *lowest_terms(terms, self.den * other.den))
        other = exact(other)
        if not other:
            return self.ring.zero()
        n = other.numerator
        terms = {e: k * n for e, k in self.packed.items()}
        return Polynomial._of(self.ring, *lowest_terms(terms, self.den * other.denominator))

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Polynomial":
        c = Fraction(exact(other))
        if c == 0:
            raise ZeroDivisionError("division of polynomial by zero scalar")
        return self * (Fraction(1) / c)

    def __pow__(self, n: int) -> "Polynomial":
        n = index(n)
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return Polynomial._of(self.ring, *pow_scaled(self.packed, self.den, n, self.ring.packing))

    # -- queries -----------------------------------------------------------

    def total_degree(self) -> int:
        """Maximum exponent sum; -1 for the zero polynomial."""
        if not self.packed:
            return -1
        # grevlex is graded: the largest key has the largest degree
        return self.ring.packing.degree(max(self.packed))

    def degree(self) -> int:
        """Maximum weighted (graded) degree; -1 for the zero polynomial."""
        if not self.packed:
            return -1
        return max(self._weighted_degrees())

    def _weighted_degrees(self) -> Iterator[int]:
        unpack, weighted = self.ring.packing.unpack, self.ring.weighted_degree
        return (weighted(unpack(k)) for k in self.packed)

    def is_homogeneous(self) -> bool:
        """True when all terms share one weighted degree (zero counts)."""
        return len(set(self._weighted_degrees())) <= 1

    def leading_exponents(self) -> Exponents:
        if not self.packed:
            raise ValueError("zero polynomial has no leading term")
        return self.ring.packing.unpack(max(self.packed))

    def leading_coefficient(self) -> Fraction:
        if not self.packed:
            raise ValueError("zero polynomial has no leading term")
        return Fraction(self.packed[max(self.packed)], self.den)

    def monic(self) -> "Polynomial":
        if not self.packed:
            return self
        return self / self.leading_coefficient()

    def is_integral(self) -> bool:
        """True when every coefficient is an integer."""
        return self.den == 1

    def sorted_terms(self) -> Iterator[Tuple[Exponents, Fraction]]:
        """Terms in descending grevlex order."""
        unpack, den = self.ring.packing.unpack, self.den
        for k in sorted(self.packed, reverse=True):
            yield unpack(k), Fraction(self.packed[k], den)

    # -- substitution / evaluation ------------------------------------------

    def substitute(self, images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Ring map sending each variable to ``images[name]``.

        Every variable of the source ring must have an image; all images must
        live in one ring.  The powers of the images are built for this call
        alone (:func:`map_terms`).

        The map runs over Z: with f = F/D and every image G_i/d over one
        common d, f(G/d) = sum_e F_e d^(N-|e|) G^e / (D d^N), N the top total
        degree of f.  The sum is one integer ring map over D d^N, brought to
        lowest terms once, at the end.
        """
        missing = [n for n in self.ring.names if n not in images]
        if missing:
            raise KeyError(f"substitute: no image for variables {missing}")
        rings = {p.ring for p in images.values()}
        if len(rings) != 1:
            raise RingMismatchError("substitute: images live in different rings")
        tring = rings.pop()
        img = [images[n] for n in self.ring.names]
        d = lcm(*(g.den for g in img))
        packing = self.ring.packing
        top = self.total_degree()
        scaled = {
            k: c * d ** (top - packing.degree(k)) for k, c in self.packed.items()
        } if d != 1 else self.packed
        integral = [
            g.packed if g.den == d else {m: c * (d // g.den) for m, c in g.packed.items()}
            for g in img
        ]
        out = map_terms(scaled, packing, integral, tring.packing)
        return Polynomial._of(tring, *lowest_terms(out, self.den * d ** max(top, 0)))

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        names = self.ring.names
        return terms_text(
            (c, "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k))
            for e, c in self.sorted_terms()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Polynomial({self})"


# -- products of linear forms ------------------------------------------------


class _FormProductFields(NamedTuple):
    scalar: Fraction
    forms: Tuple[Polynomial, ...]


class FormProduct(_FormProductFields):
    """A scalar times a product of linear forms (kept in factored shape);
    each form is a degree-one :class:`Polynomial`."""

    __slots__ = ()

    def __new__(cls, scalar: Scalar, forms: Tuple[Polynomial, ...]) -> "FormProduct":
        scalar = Fraction(exact(scalar))
        if len({f.ring for f in forms}) > 1:
            raise RingMismatchError("factors live in different rings")
        return super().__new__(cls, scalar, forms)

    # validated like the constructor; ``_replace`` builds through ``_make``
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    @property
    def ring(self) -> PolyRing:
        if not self.forms:
            raise ValueError("empty product has no ring")
        return self.forms[0].ring

    def expand(self) -> Polynomial:
        out = self.ring.const(self.scalar)
        for f in self.forms:
            out = out * f
        return out

    def __str__(self) -> str:
        inner = " * ".join(f"({f})" for f in self.forms)
        if self.scalar == 1:
            return inner
        return f"{self.scalar} * {inner}"


def pairwise_coprime(
    products: Sequence[FormProduct],
) -> Tuple[bool, Optional[Tuple[int, int, Polynomial]]]:
    """Check no two products share a linear factor up to scalar.

    Returns ``(True, None)`` or ``(False, (i, j, shared_form))`` with the
    first shared factor found, made monic.
    """
    for i, j in itertools.combinations(range(len(products)), 2):
        for f in products[i].forms:
            for g in products[j].forms:
                if f.monic() == g.monic():
                    return False, (i, j, f.monic())
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
        out = out + functools.reduce(mul, combo)
    return out


def exact_divide(f: Polynomial, g: Polynomial) -> Optional[Polynomial]:
    """Return q with f == q*g if g divides f exactly, else None.

    Single-divisor division by leading terms decides exact divisibility over
    a field regardless of monomial order, so no Groebner machinery is needed.
    It runs over Z: with f = F/D and g = c*G/d for the content c of g's
    numerators, G is primitive, so by Gauss's lemma F/G is in Q[x] only if
    it is in Z[x], and the reduction divides every coefficient exactly or
    stops.  Then f/g = (F/G) * d / (D*c).
    """
    if f.ring != g.ring:
        raise RingMismatchError("dividend and divisor in different rings")
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    packing = f.ring.packing
    lead = packing.pack(g.leading_exponents())
    content = gcd(*g.packed.values())
    primitive = g.packed if content == 1 else {k: c // content for k, c in g.packed.items()}
    quotients = reduce_terms(f.packed, [divisor(primitive, lead)], packing)
    if quotients is None:
        return None
    q = quotients[0] if g.den == 1 else {k: c * g.den for k, c in quotients[0].items()}
    return Polynomial._of(f.ring, *lowest_terms(q, f.den * content))


# -- sparse-term kernels -------------------------------------------------------
#
# A term dict maps the keys of one Packing to nonzero coefficients, all
# Fractions or all ints.  Polynomial and ktheory.Character are thin wrappers
# over these; a Polynomial's coefficients are the numerators over its
# denominator, kept in lowest terms by the *_scaled helpers.


def add_terms(f: Mapping[int, Scalar], g: Mapping[int, Scalar]) -> Terms:
    """f + g, dropping cancelled terms."""
    return add_into(dict(f), g)


def add_into(out: Terms, g: Mapping[int, Scalar]) -> Terms:
    """Add g into ``out`` in place (dropping cancelled terms); return it."""
    for e, c in g.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            del out[e]
    return out


def neg_terms(f: Mapping[int, Scalar]) -> Terms:
    return {e: -c for e, c in f.items()}


def mul_terms(f: Mapping[int, Scalar], g: Mapping[int, Scalar], packing: Packing) -> Terms:
    """f * g by convolution of the two term lists; one key and one
    coefficient product when both have one term.

    Without a bias the total degree of the two leading keys is checked
    before the products are formed; with one, every result key is checked
    after (:meth:`Packing.check_fields`).
    """
    zero = packing.zero
    if len(f) == 1 == len(g):
        ((e1, c1),), ((e2, c2),) = f.items(), g.items()
        e = e1 + e2 - zero
        packing.check_fields((e,)) if zero else packing.check_degree(e)
        return {e: c1 * c2}
    if not f or not g:
        return {}
    if not zero:
        packing.check_degree(max(f) + max(g))
    out: Terms = {}
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


def pow_terms(f: Mapping[int, Scalar], n: int, packing: Packing) -> Terms:
    """f**n (n >= 0) by square-and-multiply; one key and one coefficient
    power when f has one term (:meth:`Packing.check_power`)."""
    if len(f) == 1:
        ((e, c),) = f.items()
        packing.check_power(e, n)
        return {n * (e - packing.zero) + packing.zero: c**n}
    out, base = {packing.zero: 1}, f
    while n:
        if n & 1:
            out = mul_terms(out, base, packing)
        n >>= 1
        if n:
            base = mul_terms(base, base, packing)
    return out


def map_terms(
    f: Mapping[int, Scalar], source: Packing, images: Sequence[Terms], target: Packing
) -> Terms:
    """The image of f under the ring map sending variable i to ``images[i]``.

    ``source``, a packing without a bias, packs the keys of f and ``target``
    those of the images.  The powers of each image are built once, by
    repeated multiplication, and shared by all terms of f; they live for
    this call only.

    Into a target that packs as the source does (as many variables, no
    bias), with no image zero, the map folds.  A term's shift and total
    degree start from its own key and degree, and a variable whose image is
    its own key stays where it is.  Every other variable takes its part back
    out of both: a one-term image c*m to the k-th power adds the key k*m and
    multiplies the coefficient by c**k, and any other image multiplies its
    k-th power into the product that the shift then moves once.  Every
    step's total degree is at most the term's, so one check of that sum
    refuses what a step would, with its message.  Everywhere else each step
    runs through :func:`mul_terms`, which checks it: a zero image would end
    a term's checks early, and with a bias a field can leave its range at
    one step and come back at a later one.
    """
    if source.zero:
        raise ValueError("map_terms reads the keys of a packing without a bias")
    one = {target.zero: 1}
    fold = target.nvars == source.nvars and not target.zero and all(images)
    # per variable read: its field's offset, the shift and the degree one
    # power adds, the coefficient of a one-term image (None for others), and
    # the image's powers so far
    factors = []
    for i, (g, m) in enumerate(zip(images, source.multipliers)):
        if not fold:
            factors.append((i * FIELD_BITS, 0, 0, None, [one, g], g))
            continue
        key, scale = next(iter(g.items())) if len(g) == 1 else (0, None)
        if (key, scale) != (m, 1):  # else the variable is sent to itself
            factors.append((i * FIELD_BITS, key - m, target.degree(max(g)) - 1, scale, [one, g], g))
    mask, low, degree_bits = (1 << FIELD_BITS) - 1, source.low, source.shift
    out: Terms = {}
    try:
        for e, c in f.items():
            r = -e & low  # the fields of e
            shift, top, term = (e, (e + low) >> degree_bits, one) if fold else (0, 0, one)
            for offset, step, rise, scale, cache, g in factors:
                k = r >> offset & mask
                if k:
                    top += k * rise
                    shift += k * step
                    if scale is not None:
                        c *= scale**k
                        continue
                    while len(cache) <= k:
                        cache.append(mul_terms(cache[-1], g, target))
                    term = cache[k] if term is one else mul_terms(term, cache[k], target)
            if shift:
                target.check_degree(top << target.shift)
            for m, v in term.items():
                m += shift
                s = out.get(m, 0) + c * v
                if s:
                    out[m] = s
                else:
                    del out[m]
    except MemoryError:
        # the powers hold most of what was allocated, and the frames the
        # error passes keep them alive: free them first, so that unwinding
        # the frames above has memory and the error reaches the caller
        for factor in factors:
            factor[4].clear()
        raise
    return out


def lowest_terms(terms: Dict[int, int], den: int) -> Tuple[Dict[int, int], int]:
    """Integer numerators over a positive ``den``, divided by their common
    factor with it (the zero dict comes back over 1)."""
    if den == 1:
        return terms, 1
    if not terms:
        return terms, 1
    g = gcd(den, *terms.values())
    if g == 1:
        return terms, den
    return {k: c // g for k, c in terms.items()}, den // g


def scaled_terms(terms: Mapping[int, Scalar]) -> Tuple[Dict[int, int], int]:
    """Int or Fraction coefficients as integer numerators over their least
    common denominator, in lowest terms: :func:`flagoct.scaled.numerators`
    of the coefficients, keyed as ``terms`` is."""
    nums, den = numerators(terms.values())
    return dict(zip(terms, nums)), den


def add_scaled(f: Terms, df: int, g: Terms, dg: int) -> Tuple[Dict[int, int], int]:
    """F/df + G/dg in lowest terms."""
    if df == dg:
        return lowest_terms(add_terms(f, g), df)
    den = lcm(df, dg)
    a, b = den // df, den // dg
    return lowest_terms(
        add_terms({k: c * a for k, c in f.items()}, {k: c * b for k, c in g.items()}), den
    )


def pow_scaled(f: Terms, den: int, n: int, packing: Packing) -> Tuple[Dict[int, int], int]:
    """(F/den)**n = F**n / den**n, already in lowest terms: the content of
    F**n is the n-th power of F's (Gauss's lemma), which is prime to den."""
    terms = pow_terms(f, n, packing)
    return terms, den**n if terms else 1


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


def divisor(g: Mapping[int, Scalar], lead: int) -> Divisor:
    """g as (lead, lc, tail) for :func:`reduce_terms`, with leading key
    ``lead``: the leading coefficient and the other terms."""
    return lead, g[lead], [(e, c) for e, c in g.items() if e != lead]


def reduce_terms(
    f: Mapping[int, Scalar],
    divisors: Sequence[Divisor],
    packing: Packing,
    remainder: Optional[Terms] = None,
) -> Optional[List[Terms]]:
    """Reduce f by the leading terms of ``divisors``; return their quotients.

    Keys are unbiased keys of ``packing`` (monomials) and leading terms are
    grevlex-leading, i.e. the largest keys.  Each step takes the leading
    term of what is left of f and cancels it with the first divisor whose
    leading term reduces it: its leading monomial divides the term's, and,
    when its leading coefficient is an int, that coefficient divides the
    term's (division over Z; a Fraction leading coefficient divides over Q).
    A term that no divisor reduces is moved to ``remainder`` when one is
    given, making the result a normal form; without one the loop stops and
    returns None, so that exact division fails at the first such term.

    No key of a step has a larger total degree than the leading key of f,
    so checking that one against the field width covers them all.
    """
    quotients: List[Terms] = [{} for _ in divisors]
    if not f:
        return quotients
    packing.check_degree(max(f))
    guard = packing.guard
    steps = list(zip(divisors, quotients))
    # what is left of f is updated in place, and a heap of negated keys
    # yields its leading term; a key whose term has cancelled is skipped
    # when popped.  Each step then costs O(len(divisor) log len(rest)), not
    # a scan and a copy of the whole rest.
    rest = dict(f)
    heap = [-e for e in rest]
    heapq.heapify(heap)
    while heap:
        e = -heapq.heappop(heap)
        lead = rest.pop(e, None)
        if lead is None:
            continue
        for (g_lead, g_lc, g_tail), quotient in steps:
            if (g_lead - e) & guard:
                continue
            if type(g_lc) is int:
                c, r = divmod(lead, g_lc)
                if r:
                    continue
            else:
                c = lead / g_lc
            shift = e - g_lead
            quotient[shift] = c
            # every new term lies below e, as grevlex is a monomial order
            for eg, cg in g_tail:
                m = shift + eg
                s = rest.get(m, 0) - c * cg
                if s:
                    if m not in rest:
                        heapq.heappush(heap, -m)
                    rest[m] = s
                else:
                    del rest[m]
            break
        else:
            if remainder is None:
                return None
            remainder[e] = lead
    return quotients
