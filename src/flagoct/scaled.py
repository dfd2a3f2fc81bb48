"""The one exact store for the octonion, Jordan and weight layers.

A :class:`Scaled` value is a flat tuple of integer numerators ``nums`` over
one positive denominator ``den``, in lowest terms (``gcd(den, *nums) == 1``),
so ``==`` and ``hash`` compare tuples and linear algebra runs on integers.
:class:`~flagoct.octonion.Octonion` (8 coordinates),
:class:`~flagoct.weyl.Weight` (4), :class:`~flagoct.jordan.JordanMatrix` (27),
:class:`~flagoct.jordan.OctMatrix3` (9 x 8) and
:class:`~flagoct.jordan.LinearOperator27` (27 x 27) subclass it and add only
their own structure.  Only ``int`` and ``Fraction`` scalars are accepted;
anything else, floats included, raises ``TypeError``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, sub
from typing import Callable, List, Sequence, Tuple, Union

Scalar = Union[int, Fraction]


@lru_cache(maxsize=None)
def _zero() -> Fraction:
    """The shared ``Fraction(0)``, built on first use: importing builds none."""
    return Fraction(0)


def exact(c: object) -> Scalar:
    """``c`` itself if it is an ``int`` or a ``Fraction``; ``TypeError`` otherwise."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"exact scalars are int or Fraction, got {type(c).__name__} {c!r}")
    return c


def numerators(values: Sequence[Scalar]) -> Tuple[Tuple[int, ...], int]:
    """Integer numerators over the least common denominator of ``values``.

    The result is in lowest terms: for each prime of the denominator, the
    value with the highest power of it keeps a numerator prime to it.
    """
    values = [exact(v) for v in values]
    den = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


class Scaled:
    """Integer numerators over one positive denominator, in lowest terms."""

    __slots__ = ("nums", "den")
    SIZE = 0

    def __init__(self, coords: Sequence[Scalar]):
        if len(coords) != self.SIZE:
            raise ValueError(
                f"{type(self).__name__} needs exactly {self.SIZE} coordinates, got {len(coords)}"
            )
        self.nums, self.den = numerators(coords)

    @classmethod
    def _of(cls, nums: Sequence[int], den: int):
        """Wrap numerators over a positive ``den``, reducing to lowest terms."""
        g = gcd(den, *nums)
        out = object.__new__(cls)
        if g == 1:
            out.nums, out.den = tuple(nums), den
        else:
            out.nums, out.den = tuple(x // g for x in nums), den // g
        return out

    def _chunks(self, size: int) -> List[Tuple[int, ...]]:
        """The numerators cut into consecutive tuples of ``size``."""
        n = self.nums
        return [n[k : k + size] for k in range(0, len(n), size)]

    @property
    def coords(self) -> Tuple[Fraction, ...]:
        """The values as ``Fraction``s, in storage order."""
        den, zero = self.den, _zero()
        return tuple(Fraction(n, den) if n else zero for n in self.nums)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(coords={self.coords!r})"

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def _combine(self, other: "Scaled", op: Callable[[int, int], int]):
        if type(other) is not type(self):
            return NotImplemented
        if self.den == other.den:
            return self._of(tuple(map(op, self.nums, other.nums)), self.den)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        return self._of(tuple(op(fa * x, fb * y) for x, y in zip(self.nums, other.nums)), den)

    def __add__(self, other: "Scaled"):
        return self._combine(other, add)

    def __sub__(self, other: "Scaled"):
        return self._combine(other, sub)

    def __neg__(self):
        return self._of(tuple(-x for x in self.nums), self.den)

    def scale(self, c: Scalar):
        c = exact(c)
        n = c.numerator
        return self._of(tuple(n * x for x in self.nums), self.den * c.denominator)

    def is_zero(self) -> bool:
        return not any(self.nums)
