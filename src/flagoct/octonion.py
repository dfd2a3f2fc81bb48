"""Octonions over the rationals, built by Cayley-Dickson doubling.

An octonion is stored as eight rational coordinates (integer numerators
over one denominator, see :mod:`flagoct.scaled`) on the basis

    e1 = 1, e2 = i, e3 = j, e4 = k, e5 = l, e6 = i*l, e7 = j*l, e8 = k*l,

i.e. a pair of quaternions (a, b) = a + b*l.  Multiplication doubles the
quaternion product via

    (a, b) * (c, d) = (a*c - conj(d)*b,  d*a + b*conj(c)).

Basis indices are 1-based throughout the public interface to match the
naming above; ``unit(1)`` is the multiplicative identity.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from .scaled import Scaled, Scalar

Quat = Tuple[int, int, int, int]


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


class Octonion(Scaled):
    """An immutable rational octonion: eight integer numerators over ``den``.

    ``Octonion(coords)`` takes eight ``int``/``Fraction`` coordinates; the
    linear structure (``+``, ``-``, ``scale``, ``==``, ``hash``) and the
    ``coords`` view come from :class:`flagoct.scaled.Scaled`.
    """

    __slots__ = ()
    SIZE = 8

    # -- constructors --------------------------------------------------------

    @staticmethod
    def unit(i: int) -> "Octonion":
        """The basis octonion e_i, 1-based (e1 is the identity)."""
        if not 1 <= i <= 8:
            raise ValueError(f"basis index must be 1..8, got {i}")
        nums = [0] * 8
        nums[i - 1] = 1
        return Octonion._of(nums, 1)

    @staticmethod
    def from_coords(coords: Sequence[Scalar]) -> "Octonion":
        return Octonion(tuple(coords))

    @staticmethod
    def random(rng: random.Random, span: int = 5) -> "Octonion":
        """Small random integral octonion, for randomized identity checks."""
        return Octonion._of([rng.randint(-span, span) for _ in range(8)], 1)

    # -- pieces ---------------------------------------------------------------

    def real_part(self) -> Fraction:
        return Fraction(self.nums[0], self.den)

    def is_real(self) -> bool:
        return not any(self.nums[1:])

    # -- algebra ----------------------------------------------------------------

    def __mul__(self, other: Union["Octonion", Scalar]) -> "Octonion":
        if not isinstance(other, Octonion):
            return self.scale(other)
        # the bilinear expansion over the unit table, on the nonzero
        # numerators alone; identical to the doubling formula
        table = _unit_table()
        b = [(j, y) for j, y in enumerate(other.nums) if y]
        out = [0] * 8
        for i, x in enumerate(self.nums):
            if x:
                row = table[i]
                for j, y in b:
                    sign, k = row[j]
                    out[k - 1] += sign * x * y
        return Octonion._of(out, self.den * other.den)

    def _doubling_mul(self, other: "Octonion") -> "Octonion":
        """Reference product straight from the doubling construction."""
        a, b = self.nums[:4], self.nums[4:]
        c, d = other.nums[:4], other.nums[4:]
        first = _q_sub(_q_mul(a, c), _q_mul(_q_conj(d), b))
        second = _q_add(_q_mul(d, a), _q_mul(b, _q_conj(c)))
        return Octonion._of(first + second, self.den * other.den)

    def __rmul__(self, other: Scalar) -> "Octonion":
        return self.scale(other)

    def conjugate(self) -> "Octonion":
        return Octonion._of((self.nums[0],) + tuple(-c for c in self.nums[1:]), self.den)

    def norm_squared(self) -> Fraction:
        return Fraction(sum(c * c for c in self.nums), self.den * self.den)

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
                nonzero = [(idx, c) for idx, c in enumerate(prod.nums) if c != 0]
                if len(nonzero) != 1 or abs(nonzero[0][1]) != 1:
                    raise AssertionError("basis product is not a signed unit")
                idx, c = nonzero[0]
                row.append((1 if c > 0 else -1, idx + 1))
            _TABLE.append(row)
    return _TABLE


def multiplication_table() -> List[List[Tuple[int, int]]]:
    """Products of basis units as (sign, index) pairs, 1-based.

    ``table[i-1][j-1] == (s, k)`` means e_i * e_j == s * e_k.
    """
    return [list(row) for row in _unit_table()]


def associativity_witness() -> Tuple[Octonion, Octonion, Octonion, Octonion]:
    """A triple of basis units with nonzero associator, plus the associator."""
    x, y, z = Octonion.unit(2), Octonion.unit(3), Octonion.unit(5)
    return x, y, z, x.associator(y, z)
