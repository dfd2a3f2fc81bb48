"""Octonions over the rationals, built by Cayley-Dickson doubling.

An octonion is stored as eight rational coordinates on the basis

    e1 = 1, e2 = i, e3 = j, e4 = k, e5 = l, e6 = i*l, e7 = j*l, e8 = k*l,

i.e. a pair of quaternions (a, b) = a + b*l.  Multiplication doubles the
quaternion product via

    (a, b) * (c, d) = (a*c - conj(d)*b,  d*a + b*conj(c)).

Basis indices are 1-based throughout the public interface to match the
naming above; ``unit(1)`` is the multiplicative identity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple, Union

Scalar = Union[int, Fraction]
Quat = Tuple[Fraction, Fraction, Fraction, Fraction]

_ZERO4 = (Fraction(0),) * 4


def _q_conj(a: Quat) -> Quat:
    return (a[0], -a[1], -a[2], -a[3])


def _q_add(a: Quat, b: Quat) -> Quat:
    return tuple(x + y for x, y in zip(a, b))  # type: ignore[return-value]


def _q_sub(a: Quat, b: Quat) -> Quat:
    return tuple(x - y for x, y in zip(a, b))  # type: ignore[return-value]


def _q_mul(a: Quat, b: Quat) -> Quat:
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


@dataclass(frozen=True)
class Octonion:
    """An immutable rational octonion."""

    coords: Tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != 8:
            raise ValueError("octonion needs exactly 8 coordinates")
        if any(type(c) is not Fraction for c in self.coords):
            object.__setattr__(
                self, "coords", tuple(Fraction(c) for c in self.coords)
            )

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "Octonion":
        return Octonion((0,) * 8)

    @staticmethod
    def one() -> "Octonion":
        return Octonion.scalar(1)

    @staticmethod
    def scalar(c: Scalar) -> "Octonion":
        return Octonion((Fraction(c), 0, 0, 0, 0, 0, 0, 0))

    @staticmethod
    def unit(i: int) -> "Octonion":
        """The basis octonion e_i, 1-based (e1 is the identity)."""
        if not 1 <= i <= 8:
            raise ValueError(f"basis index must be 1..8, got {i}")
        coords = [Fraction(0)] * 8
        coords[i - 1] = Fraction(1)
        return Octonion(tuple(coords))

    @staticmethod
    def from_coords(coords: Sequence[Scalar]) -> "Octonion":
        return Octonion(tuple(Fraction(c) for c in coords))

    @staticmethod
    def random(rng: random.Random, span: int = 5) -> "Octonion":
        """Small random integral octonion, for randomized identity checks."""
        return Octonion(tuple(Fraction(rng.randint(-span, span)) for _ in range(8)))

    # -- pieces ---------------------------------------------------------------

    def _halves(self) -> Tuple[Quat, Quat]:
        return self.coords[:4], self.coords[4:]

    def real_part(self) -> Fraction:
        return self.coords[0]

    def imaginary_part(self) -> "Octonion":
        return Octonion((Fraction(0),) + self.coords[1:])

    def is_real(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    # -- algebra ----------------------------------------------------------------

    def __add__(self, other: "Octonion") -> "Octonion":
        return Octonion(tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other: "Octonion") -> "Octonion":
        return Octonion(tuple(x - y for x, y in zip(self.coords, other.coords)))

    def __neg__(self) -> "Octonion":
        return Octonion(tuple(-x for x in self.coords))

    def scale(self, c: Scalar) -> "Octonion":
        c = Fraction(c)
        return Octonion(tuple(c * x for x in self.coords))

    def __mul__(self, other: Union["Octonion", Scalar]) -> "Octonion":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out = [Fraction(0)] * 8
        mul_into(out, self.coords, other.coords)
        return Octonion(tuple(out))

    def _doubling_mul(self, other: "Octonion") -> "Octonion":
        """Reference product straight from the doubling construction."""
        a, b = self._halves()
        c, d = other._halves()
        first = _q_sub(_q_mul(a, c), _q_mul(_q_conj(d), b))
        second = _q_add(_q_mul(d, a), _q_mul(b, _q_conj(c)))
        return Octonion(first + second)

    def __rmul__(self, other: Scalar) -> "Octonion":
        return self.scale(other)

    def conjugate(self) -> "Octonion":
        return Octonion((self.coords[0],) + tuple(-c for c in self.coords[1:]))

    def norm_squared(self) -> Fraction:
        return sum(c * c for c in self.coords)

    def commutator(self, other: "Octonion") -> "Octonion":
        return self * other - other * self

    def associator(self, other: "Octonion", third: "Octonion") -> "Octonion":
        return (self * other) * third - self * (other * third)


_TABLE: List[List[Tuple[int, int]]] = []


def _unit_table() -> List[List[Tuple[int, int]]]:
    """Lazily built basis-product table, derived from the doubling formula."""
    if not _TABLE:
        for i in range(1, 9):
            row: List[Tuple[int, int]] = []
            for j in range(1, 9):
                prod = Octonion.unit(i)._doubling_mul(Octonion.unit(j))
                nonzero = [(idx, c) for idx, c in enumerate(prod.coords) if c != 0]
                if len(nonzero) != 1 or abs(nonzero[0][1]) != 1:
                    raise AssertionError("basis product is not a signed unit")
                idx, c = nonzero[0]
                row.append((1 if c > 0 else -1, idx + 1))
            _TABLE.append(row)
    return _TABLE


def mul_into(out: List, a: Sequence, b: Sequence) -> None:
    """Add the product a * b of two coordinate 8-sequences into ``out``.

    The bilinear expansion over the (doubling-construction) unit table,
    skipping zero coordinates; identical to the doubling formula.  It takes
    any exact coordinates: ``Fraction`` in :class:`Octonion`, integer
    numerators in :class:`flagoct.jordan.OctMatrix3`.
    """
    nonzero_b = [(j, cj) for j, cj in enumerate(b) if cj]
    if not nonzero_b:
        return
    table = _unit_table()
    for i, ci in enumerate(a):
        if ci:
            row = table[i]
            for j, cj in nonzero_b:
                sign, k = row[j]
                if sign > 0:
                    out[k - 1] += ci * cj
                else:
                    out[k - 1] -= ci * cj


def multiplication_table() -> List[List[Tuple[int, int]]]:
    """Products of basis units as (sign, index) pairs, 1-based.

    ``table[i-1][j-1] == (s, k)`` means e_i * e_j == s * e_k.
    """
    return [list(row) for row in _unit_table()]


def associativity_witness() -> Tuple[Octonion, Octonion, Octonion, Octonion]:
    """A triple of basis units with nonzero associator, plus the associator."""
    x, y, z = Octonion.unit(2), Octonion.unit(3), Octonion.unit(5)
    return x, y, z, x.associator(y, z)
