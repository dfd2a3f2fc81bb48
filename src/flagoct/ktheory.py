"""Characters of the rank-4 torus and the representation-ring GKM model.

The character ring is realized as the group algebra of the weight lattice
(all-integer or all-half-integer 4-vectors) with integer coefficients, so
the usual Laurent presentation's relation y5^2 = y1 y2 y3 y4 is an identity
of weights rather than a rewrite rule.  Every weight is doubled (multiplied
by 2) to a 4-tuple of like-parity integers, its key, and stored packed into
one int by ``CHAR_PACKING``.

Key objects:

* y(j) = e^{omega_j}: the five standard lattice generators (y5 half-sum);
* x_character(1..4): the four basic invariant characters - the two
  half-spin eight-dimensional ones, the vector one, and the 24-term adjoint
  display (whose four-dimensional zero weight space is deliberately omitted
  by the display; ``adjoint_character`` restores it and the discrepancy is
  flagged in reports);
* exact character division, with an independent coset-projection test for
  binomial divisors e^lambda - 1;
* conversion between invariant characters and integer polynomials in
  X1..X4 by repeated subtraction at the lexicographically maximal weight;
* the edge divisors of the six-vertex moment graph, in both character form
  (y-product divisors) and polynomial form (X_i - X_j), which
  ``flagoct.gkm.check_membership`` tests tuples against.
"""

from __future__ import annotations

import functools
import random
import struct
from fractions import Fraction
from operator import index, mul
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .poly import FIELD_BITS, Packing, PolyRing, Polynomial, ResourceLimitError, divisor, reduce_terms
from .poly import add_terms, map_terms, mul_terms, neg_terms, pow_terms, terms_text
from .scaled import exact
from .weyl import (
    ROOT_TRANSPOSITIONS,
    SIGMA3_NAMES,
    L,
    Sigma3Element,
    Weight,
    WeylElement,
    f4_short_roots,
    omega,
    sigma3_by_name,
    sigma_tilde_generators,
    spin8_reflections,
    spin8_roots,
)

DKey = Tuple[int, int, int, int]

X_RING = PolyRing.make(("X1", "X2", "X3", "X4"), (1, 1, 1, 1))

# Doubled weight keys packed with a bias: every coordinate k with
# -2**(FIELD_BITS-2) <= k < 2**(FIELD_BITS-2) fits, and lexicographic order
# on the keys is taken from their unpacked tuples.
CHAR_PACKING = Packing(4, bias=1 << (FIELD_BITS - 2))

# the same fields without the bias, for the shifted (nonnegative) keys of
# character division
_SHIFTED_PACKING = Packing(4)


def _validate_dkey(key: Sequence[int]) -> DKey:
    key = tuple(int(k) for k in key)
    if len(key) != 4:
        raise ValueError("weight keys have 4 coordinates")
    parities = {k % 2 for k in key}
    if len(parities) != 1:
        raise ValueError(
            f"doubled weight {key} is not in the lattice "
            "(coordinates must be all even or all odd)"
        )
    return key


def _integer(c: object) -> int:
    """A character coefficient: an exact scalar (``TypeError`` otherwise)
    that is an integer (``ValueError`` otherwise)."""
    c = exact(c)
    if c.denominator != 1:
        raise ValueError("character coefficients must be integers")
    return int(c)


class Character:
    """An integer combination of lattice weights (a virtual character).

    ``packed`` maps the doubled weight keys, packed by ``CHAR_PACKING``, to
    nonzero int coefficients; ``terms`` is a read-only view by key tuples,
    built on each access.
    """

    __slots__ = ("packed",)

    def __init__(self, terms: Mapping[DKey, int]):
        pack = CHAR_PACKING.pack
        clean: Dict[int, int] = {}
        for key, coeff in terms.items():
            coeff = _integer(coeff)
            if coeff:
                clean[pack(_validate_dkey(key))] = coeff
        self.packed = clean

    @classmethod
    def _of(cls, packed: Dict[int, int]) -> "Character":
        """Wrap ``packed`` as it is: lattice keys, nonzero int coefficients.

        For results built from the keys of valid characters (sums, negatives,
        Weyl images), which lie in the lattice already.
        """
        out = cls.__new__(cls)
        out.packed = packed
        return out

    @property
    def terms(self) -> Dict[DKey, int]:
        unpack = CHAR_PACKING.unpack
        return {unpack(k): c for k, c in self.packed.items()}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Character":
        return Character({})

    @staticmethod
    def one() -> "Character":
        return Character({(0, 0, 0, 0): 1})

    @staticmethod
    def monomial(w: Weight, coeff: int = 1) -> "Character":
        return Character({w.doubled_key(): coeff})

    @staticmethod
    def constant(n: int) -> "Character":
        return Character({(0, 0, 0, 0): n})

    # -- structure ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Character):
            return NotImplemented
        return self.packed == other.packed

    def __hash__(self) -> int:
        return hash(frozenset(self.packed.items()))

    def __bool__(self) -> bool:
        return bool(self.packed)

    def is_zero(self) -> bool:
        return not self.packed

    def dimension(self) -> int:
        """Value at the identity: the sum of all coefficients."""
        return sum(self.packed.values())

    def lex_max_key(self) -> DKey:
        if not self.packed:
            raise ValueError("zero character has no maximal weight")
        return max(map(CHAR_PACKING.unpack, self.packed))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Character") -> "Character":
        if not isinstance(other, Character):
            return NotImplemented
        return Character._of(add_terms(self.packed, other.packed))

    def __sub__(self, other: "Character") -> "Character":
        if not isinstance(other, Character):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Character":
        return Character._of(neg_terms(self.packed))

    def __mul__(self, other: "Character") -> "Character":
        if not isinstance(other, Character):
            return NotImplemented  # a scalar multiple is a product with constant(n)
        return Character._of(mul_terms(self.packed, other.packed, CHAR_PACKING))

    def __pow__(self, n: int) -> "Character":
        n = index(n)
        if n < 0:
            raise ValueError("negative character powers are not defined")
        return Character._of(pow_terms(self.packed, n, CHAR_PACKING))

    def __str__(self) -> str:
        return _sum_text(_sorted_rows(self))


def _key_fields(packed: Mapping[int, int]) -> Tuple[int, ...]:
    """The biased fields of every key of ``packed``, four per key in the
    mapping's order, read in one conversion as little-endian unsigned
    16-bit words (as ``Packing.unpack`` reads one key's): field i of every
    key is every fourth word from word i."""
    low = CHAR_PACKING.low
    data = b"".join([(-k & low).to_bytes(8, "little") for k in packed])
    return struct.unpack(f"<{len(data) >> 1}H", data)


_Row = Tuple[int, int, int, int, int]


def _sorted_rows(f: Character) -> List[_Row]:
    """The four biased fields and the coefficient of every term of f, in
    lexicographic order of the keys (the bias is the same in every field)."""
    fields = _key_fields(f.packed)
    return sorted(zip(fields[0::4], fields[1::4], fields[2::4], fields[3::4], f.packed.values()))


def _sum_text(rows: Sequence[_Row]) -> str:
    """The sum of the terms ``rows`` (from :func:`_sorted_rows`), largest key
    first, as words in y1..y5.

    A field v holds the doubled coordinate k = v - bias, and an odd k takes
    its half from y5: the y-exponent is (k - k % 2) / 2 = (v >> 1) - bias / 2,
    the bias being even.  Each distinct factor is formatted once, with the
    ``*`` that joins it to the next; the last one is cut from the word."""
    half = CHAR_PACKING.bias >> 1
    factors = []
    for i in range(4):
        name, exps = f"y{i + 1}", {row[i] >> 1 for row in rows}
        factors.append({e: "" if e == half else f"{name}*" if e == half + 1 else f"{name}^{e - half}*"
                        for e in exps})
    w1, w2, w3, w4 = factors
    return terms_text(
        (m, (w1[a >> 1] + w2[b >> 1] + w3[c >> 1] + w4[d >> 1] + ("y5*" if a & 1 else ""))[:-1])
        for a, b, c, d, m in reversed(rows)
    )


def expand_text(f: Character) -> str:
    """What ``flagoct expand`` prints for f: its sum, largest key first,
    then one line per weight, smallest first, with its coordinates (k/2
    for a doubled coordinate k, each distinct k formatted once) and its
    multiplicity."""
    rows = _sorted_rows(f)
    bias = CHAR_PACKING.bias
    coords = {v: f"'{Fraction(v - bias, 2)}'" for v in {v for row in rows for v in row[:4]}}
    lines = [_sum_text(rows)]
    lines += [f"  weight ({coords[a]}, {coords[b]}, {coords[c]}, {coords[d]})  multiplicity {m}"
              for a, b, c, d, m in rows]
    return "\n".join(lines)


def y(j: int) -> Character:
    """The lattice generator e^{omega_j}."""
    return Character.monomial(omega(j))


# -- the four basic invariant characters ------------------------------------------


# x_character's results, filled by its own body on first use (it is a traced
# target, so it carries no decorator); nothing may change their term dicts
_X_CHARACTERS: Dict[int, Character] = {}


def x_character(i: int) -> Character:
    """The i-th basic character, as displayed (X4 without its zero weights)."""
    cached = _X_CHARACTERS.get(i)
    if cached is not None:
        return cached
    if i in (1, 2):
        # half-spin: the half-integral short roots of F4, doubled keys
        # (+-1, +-1, +-1, +-1), with an even (X1) or an odd (X2) number of
        # minus signs
        keys = [
            k for k in map(Weight.doubled_key, f4_short_roots())
            if k[0] % 2 and k.count(-1) % 2 == i - 1
        ]
    elif i == 3:
        # vector: the integral short roots +-L_k
        keys = [k for k in map(Weight.doubled_key, f4_short_roots()) if k[0] % 2 == 0]
    elif i == 4:
        # adjoint display: the roots +-L_a +- L_b of Spin(8)
        keys = map(Weight.doubled_key, spin8_roots())
    else:
        raise ValueError("character index must be 1..4")
    out = _X_CHARACTERS[i] = Character(dict.fromkeys(sorted(keys), 1))
    return out


def adjoint_character() -> Character:
    """The full 28-dimensional adjoint character: the X4 display plus the
    rank-many zero weights the display omits."""
    return x_character(4) + Character.constant(4)


def x4_display_discrepancy() -> int:
    """Dimension gap between the adjoint character and the X4 display (= 4)."""
    return adjoint_character().dimension() - x_character(4).dimension()


# -- Weyl action --------------------------------------------------------------------


def weyl_act(w: WeylElement, f: Character) -> Character:
    """w applied to every weight of f, in one pass over the packed keys.

    Each key is unpacked once, its doubled image is the doubled matrix times
    the doubled weight, halved (``ValueError`` unless every coordinate is
    even), and packed again through the packing's multipliers
    (:class:`ResourceLimitError` for a coordinate outside the fields).
    """
    if not w.preserves_lattice():
        raise ValueError("transformation does not preserve the weight lattice")
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = w.doubled
    unpack, (m0, m1, m2, m3) = CHAR_PACKING.unpack, CHAR_PACKING.multipliers
    zero, lo = CHAR_PACKING.zero, -CHAR_PACKING.bias
    hi = CHAR_PACKING.limit + lo
    # a lattice-preserving action maps distinct keys to distinct lattice keys
    out = {}
    for key, coeff in f.packed.items():
        k0, k1, k2, k3 = unpack(key)
        v0 = a0 * k0 + a1 * k1 + a2 * k2 + a3 * k3
        v1 = b0 * k0 + b1 * k1 + b2 * k2 + b3 * k3
        v2 = c0 * k0 + c1 * k1 + c2 * k2 + c3 * k3
        v3 = d0 * k0 + d1 * k1 + d2 * k2 + d3 * k3
        if (v0 | v1 | v2 | v3) & 1:
            raise ValueError(f"{(v0, v1, v2, v3)}/2 leaves the integers: entry not in 1/2 Z")
        v0, v1, v2, v3 = v0 >> 1, v1 >> 1, v2 >> 1, v3 >> 1
        if not (lo <= v0 <= hi and lo <= v1 <= hi and lo <= v2 <= hi and lo <= v3 <= hi):
            raise ResourceLimitError(
                f"exponents {(v0, v1, v2, v3)!r} do not fit {FIELD_BITS}-bit fields"
            )
        out[v0 * m0 + v1 * m1 + v2 * m2 + v3 * m3 + zero] = coeff
    return Character._of(out)


def is_w_invariant_character(f: Character) -> bool:
    return all(weyl_act(g, f) == f for g in spin8_reflections())


# -- the three factorization identities ----------------------------------------------


def binomial(w: Weight) -> Character:
    """The binomial e^w - 1."""
    return Character.monomial(w) - Character.one()


def factorization_rhs() -> Dict[str, Character]:
    """Right-hand sides of the three displayed difference factorizations:
    each is a unit monomial times the edge divisor of one class."""
    w5 = omega(5)
    return {
        "X1-X2": Character.monomial(w5 - L(1) - L(2) - L(3) - L(4)) * edge_divisor_char(2),
        "X1-X3": Character.monomial(-w5) * edge_divisor_char(3),
        "X3-X2": Character.monomial(-L(3)) * edge_divisor_char(1),
    }


class FactorizationReport(NamedTuple):
    x1_minus_x2_ok: bool
    x1_minus_x3_ok: bool
    x3_minus_x2_ok: bool

    @property
    def passed(self) -> bool:
        return self.x1_minus_x2_ok and self.x1_minus_x3_ok and self.x3_minus_x2_ok


def verify_factorizations(
    rhs: Optional[Dict[str, Character]] = None,
) -> FactorizationReport:
    """Compare X1-X2, X1-X3, X3-X2 with ``rhs`` (default: the displayed table)."""
    if rhs is None:
        rhs = factorization_rhs()
    x1, x2, x3 = x_character(1), x_character(2), x_character(3)
    return FactorizationReport(
        x1_minus_x2_ok=(x1 - x2) == rhs["X1-X2"],
        x1_minus_x3_ok=(x1 - x3) == rhs["X1-X3"],
        x3_minus_x2_ok=(x3 - x2) == rhs["X3-X2"],
    )


# -- exact division in the character ring ---------------------------------------------


def _shifted_terms(f: Character) -> Tuple[Dict[int, int], int]:
    """Shift the support into the nonnegative orthant; return the shifted
    terms, as keys of ``_SHIFTED_PACKING``, and the packed shift.

    The fields of all keys are read in one conversion
    (:func:`_key_fields`)."""
    fields, bias = _key_fields(f.packed), CHAR_PACKING.bias
    shift = CHAR_PACKING.pack([min(fields[i::4]) - bias for i in range(4)])
    # packing is linear: key(k) - key(s) is the unbiased key of k - s
    return {k - shift: c for k, c in f.packed.items()}, shift


def char_quotient(d: Character, f: Character) -> Optional["Character"]:
    """The exact quotient f/d as a Character, or None.

    Both sides are shifted into polynomials in four variables and divided
    over the integers; shifting the quotient back gives f/d, since neither
    shifted side is divisible by a variable.  The dimension is a ring map,
    so where d has dimension 0 and f does not, f/d is refused before any
    division.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero character")
    if f.is_zero():
        return Character.zero()
    if d.dimension() == 0 != f.dimension():
        return None
    pf, sf = _shifted_terms(f)
    pd, sd = _shifted_terms(d)
    # int coefficients: the reduction divides over Z
    quotients = reduce_terms(pf, [divisor(pd, max(pd))], _SHIFTED_PACKING)
    if quotients is None:
        return None
    # polynomial exponents are already in doubled-lattice units; the packed
    # key of e + sf - sd is key(e) + key(sf) - key(sd) + key(0)
    offset = sf - sd + CHAR_PACKING.zero
    out = {e + offset: c for e, c in quotients[0].items()}
    CHAR_PACKING.check_fields(out)
    # f/d lies on the lattice as d and f do: Z[Z^4] is a domain graded by Z^4/lattice
    return Character._of(out)


def divides_char(d: Character, f: Character) -> bool:
    """True iff f is a Character multiple of d."""
    return char_quotient(d, f) is not None


def binomial_divides(w: Weight, f: Character) -> bool:
    """Coset-projection divisibility test for the divisor e^w - 1.

    f is divisible by e^w - 1 exactly when its image in the group algebra of
    lattice/(Z w) vanishes, i.e. the coefficient sums over every coset are
    zero.  Used as an independent cross-check of :func:`divides_char`.
    """
    lam = w.doubled_key()
    if all(k == 0 for k in lam):
        raise ValueError("the zero weight does not give a binomial divisor")
    pivot = next(i for i in range(4) if lam[i] != 0)
    if lam[pivot] < 0:
        # e^{-w} - 1 is a unit multiple of e^{w} - 1, so divisibility agrees
        lam = tuple(-k for k in lam)
    sums: Dict[DKey, int] = {}
    for key, coeff in f.terms.items():
        # lam[pivot] > 0, so floor division puts the representative's pivot
        # coordinate in [0, lam[pivot]): one representative per coset
        mult = key[pivot] // lam[pivot]
        rep = tuple(k - mult * l for k, l in zip(key, lam))
        sums[rep] = sums.get(rep, 0) + coeff
    return all(v == 0 for v in sums.values())


# -- conversion to X-polynomials -------------------------------------------------------


def expand_x_polynomial(p: Polynomial) -> Character:
    """Evaluate an X-polynomial in the character ring (coefficients must be
    integers)."""
    if p.ring != X_RING:
        raise ValueError("polynomial must live in the X ring")
    if not p.is_integral():
        raise ValueError("X-polynomials must have integer coefficients")
    xs = [x_character(i).packed for i in range(1, 5)]
    return Character._of(map_terms(p.packed, X_RING.packing, xs, CHAR_PACKING))


def _dominant_exponents(key: DKey) -> Optional[Tuple[int, int, int, int]]:
    """Write a doubled weight as nonneg integer combo of the four highest
    weights (half-sum, half-sum minus L4, L1, L1+L2); None if not dominant.

    Returns exponents (for X1, X2, X3, X4)."""
    a, b, c, d = key
    if not (a >= b >= c >= abs(d)):
        return None
    # rho-coordinates, which are integers by the parity invariant
    x3_exp = (a - b) // 2
    x4_exp = (b - c) // 2
    x2_exp = (c - d) // 2
    x1_exp = (c + d) // 2
    return (x1_exp, x2_exp, x3_exp, x4_exp)


def to_x_polynomial(f: Character) -> Optional[Polynomial]:
    """Express an invariant character as an integer polynomial in X1..X4.

    Returns None when the input is not invariant.  The algorithm repeatedly
    takes the lexicographically maximal weight (which is dominant for an
    invariant character), converts it to a monomial exponent vector via the
    highest-weight decomposition, and subtracts.
    """
    if not is_w_invariant_character(f):
        return None
    work = f
    result = X_RING.zero()
    while not work.is_zero():
        key = work.lex_max_key()
        exps = _dominant_exponents(key)
        if exps is None:
            raise AssertionError(
                "invariant character produced a non-dominant maximal weight; "
                "this indicates an arithmetic defect"
            )
        coeff = work.packed[CHAR_PACKING.pack(key)]
        mono = X_RING.monomial(exps, coeff)
        result = result + mono
        work = work - expand_x_polynomial(mono)
    return result


# -- moment-graph edge divisors ---------------------------------------------------------


@functools.cache
def edge_binomials(k: int) -> Tuple[Character, ...]:
    """The four binomials whose product divides differences across class-k
    edges.

    Class indices follow the root dictionary: k=1 is the transposition
    (2,3), k=2 is (1,2), k=3 is (1,3).
    """
    w5 = omega(5)
    weights = {
        2: [L(i) for i in range(1, 5)],  # (1,2)-edges
        3: [w5 - L(i) for i in (4, 3, 2, 1)],  # (1,3)-edges
        1: [w5] + [w5 - L(a) - L(b) for a, b in ((1, 4), (2, 4), (1, 2))],  # (2,3)-edges
    }
    if k not in weights:
        raise ValueError("edge class must be 1..3")
    return tuple(map(binomial, weights[k]))


def edge_divisor_char(k: int) -> Character:
    """The product of the class-k edge binomials."""
    return functools.reduce(mul, edge_binomials(k))


@functools.cache
def edge_divisor_poly(k: int) -> Polynomial:
    """The X-ring divisor X_i - X_j of class-k edges."""
    i, j = ROOT_TRANSPOSITIONS[k]
    return X_RING.var(f"X{i}") - X_RING.var(f"X{j}")


# -- permutation action on X-polynomials and canonical tuples -----------------------------


def sigma_act_on_x(sigma: Sigma3Element, p: Polynomial) -> Polynomial:
    """Permute X1, X2, X3 by sigma (X4 fixed)."""
    images = {
        f"X{i}": X_RING.var(f"X{sigma(i)}") for i in (1, 2, 3)
    }
    images["X4"] = X_RING.var("X4")
    return p.substitute(images)


def tautological_tuple() -> Dict[str, Polynomial]:
    """The tuple sigma -> X_{sigma(1)}; every edge difference is a signed
    divisor or zero."""
    return {name: X_RING.var(f"X{sigma3_by_name(name)(1)}") for name in SIGMA3_NAMES}


def equivariant_tuple(p: Polynomial) -> Dict[str, Polynomial]:
    """The tuple sigma -> sigma . p, always a member."""
    return {name: sigma_act_on_x(sigma3_by_name(name), p) for name in SIGMA3_NAMES}


def x_action_permutations() -> Dict[str, Sigma3Element]:
    """Computed permutations of {X1, X2, X3} induced by the three complement
    reflections, found by applying each reflection to the character
    expansions (X4 is fixed by all three)."""
    chars = {i: x_character(i) for i in (1, 2, 3)}
    out: Dict[str, Sigma3Element] = {}
    for name, w in sigma_tilde_generators().items():
        perm = []
        for i in (1, 2, 3):
            moved = weyl_act(w, chars[i])
            matches = [j for j in (1, 2, 3) if moved == chars[j]]
            if len(matches) != 1:
                raise AssertionError(
                    f"reflection {name} does not permute the basic characters"
                )
            perm.append(matches[0])
        if weyl_act(w, x_character(4)) != x_character(4):
            raise AssertionError(f"reflection {name} moves the adjoint display")
        out[name] = Sigma3Element(tuple(perm))
    return out


# -- randomized equivalence of the two membership styles -----------------------------------


def random_x_polynomial(rng: random.Random) -> Polynomial:
    p = X_RING.zero()
    for _ in range(rng.randint(1, 4)):
        exps = [0, 0, 0, 0]
        for _ in range(rng.randint(0, 2)):
            exps[rng.randint(0, 3)] += 1
        p = p + X_RING.monomial(exps, rng.randint(-3, 3))
    return p


class EquivalenceReport(NamedTuple):
    trials: int
    forward_agreements: int
    negative_agreements: int

    @property
    def passed(self) -> bool:
        return (
            self.forward_agreements == self.trials
            and self.negative_agreements == self.trials
        )


def equivalence_spotcheck(count: int, seed: int) -> EquivalenceReport:
    """Divisibility by X_i - X_j in the X-ring matches divisibility of the
    expansion by the corresponding binomial product in the character ring."""
    rng = random.Random(seed)
    forward = 0
    negative = 0
    for _ in range(count):
        k = rng.choice((1, 2, 3))
        h = random_x_polynomial(rng)
        f = edge_divisor_poly(k) * h
        if divides_char(edge_divisor_char(k), expand_x_polynomial(f)):
            forward += 1
        # a polynomial congruent to X_i modulo the edge divisor X_i - X_j is
        # never divisible: its expansion evaluates non-trivially on the
        # quotient
        g = f + X_RING.var(f"X{ROOT_TRANSPOSITIONS[k][0]}")
        if not divides_char(edge_divisor_char(k), expand_x_polynomial(g)):
            negative += 1
    return EquivalenceReport(
        trials=count, forward_agreements=forward, negative_agreements=negative
    )
