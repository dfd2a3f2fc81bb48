"""Weight lattice, root systems and reflection groups for Spin(8) inside F4.

Weights live in exact L-coordinates (the standard orthonormal basis of the
rank-4 weight space).  The lattice of interest is the span of the four
weights rho_1 = L1, rho_2 = L1+L2, rho_3 = w5-L4, rho_4 = w5 where
w5 = (L1+L2+L3+L4)/2: concretely, all-integer or all-half-integer vectors.

Reflection groups are generated exactly as sets of orthogonal 4x4 matrices
with entries in (1/2)Z, each stored doubled as an integer matrix
(breadth-first closure with a hard element bound).  The quotient
W_F4 / W_Spin(8) is modelled by the order-6 group generated by the
reflections in w4, w5-w4 and w5, identified with the symmetric group on
{1,2,3}; the small A2 system of the rank-2 symmetric space (functionals
gamma_1 = x2-x3, gamma_2 = x1-x2, gamma_3 = x1-x3 on diagonal slots) is kept
separate, with its own inversion-set bookkeeping.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from operator import index
from typing import Dict, FrozenSet, List, NamedTuple, Sequence, Tuple

from .poly import ResourceLimitError
from .scaled import Scaled, Scalar, exact

GROUP_ENUMERATION_BOUND = 2000


class Weight(Scaled):
    """A weight-space vector in exact L-coordinates: four integer numerators
    over one denominator (see :mod:`flagoct.scaled`)."""

    __slots__ = ()
    SIZE = 4

    @staticmethod
    def of(a: Scalar, b: Scalar, c: Scalar, d: Scalar) -> "Weight":
        return Weight((a, b, c, d))

    def dot(self, other: "Weight") -> Fraction:
        return Fraction(
            sum(a * b for a, b in zip(self.nums, other.nums)), self.den * other.den
        )

    def is_lattice(self) -> bool:
        """Membership in the lattice spanned by rho_1..rho_4: all coordinates
        integers (``den`` 1) or all in 1/2 + Z (``den`` 2, every numerator odd)."""
        return self.den == 1 or (self.den == 2 and all(n % 2 for n in self.nums))

    def doubled_key(self) -> Tuple[int, int, int, int]:
        """2 * self as integers; raises ``ValueError`` off the lattice."""
        if not self.is_lattice():
            raise ValueError(f"weight {self} is not in the lattice")
        if self.den == 1:
            return tuple(2 * n for n in self.nums)
        return self.nums

    def rho_coordinates(self) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
        """Coordinates with respect to the basis rho_1..rho_4 (exact)."""
        w1, w2, w3, w4 = self.coords
        return (w1 - w2, w2 - w3, w3 - w4, w3 + w4)


def L(i: int) -> Weight:
    """The i-th standard coordinate weight, 1-based."""
    if not 1 <= i <= 4:
        raise ValueError("index must be 1..4")
    nums = [0] * 4
    nums[i - 1] = 1
    return Weight._of(nums, 1)


def omega(j: int) -> Weight:
    """Lattice generators: omega(i) = L(i) for i<=4, omega(5) the half-sum."""
    if 1 <= j <= 4:
        return L(j)
    if j == 5:
        return Weight.of(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    raise ValueError("index must be 1..5")


def rho(j: int) -> Weight:
    """The degree-2 polynomial generators' weights: L1, L1+L2, w5-L4, w5."""
    if j == 1:
        return L(1)
    if j == 2:
        return L(1) + L(2)
    if j == 3:
        return omega(5) - L(4)
    if j == 4:
        return omega(5)
    raise ValueError("index must be 1..4")


# -- root systems ---------------------------------------------------------------


def spin8_simple_roots() -> Tuple[Weight, ...]:
    return (L(1) - L(2), L(2) - L(3), L(3) - L(4), L(3) + L(4))


def f4_simple_roots() -> Tuple[Weight, ...]:
    half = Fraction(1, 2)
    return (
        Weight.of(half, -half, -half, -half),
        L(2),
        L(3) - L(2),
        L(4) - L(3),
    )


def spin8_roots() -> FrozenSet[Weight]:
    """The 24 roots +-L_i +- L_j (i < j)."""
    out = []
    for i, j in itertools.combinations(range(1, 5), 2):
        for si in (1, -1):
            for sj in (1, -1):
                out.append(L(i).scale(si) + L(j).scale(sj))
    return frozenset(out)


def f4_short_roots() -> FrozenSet[Weight]:
    """The 24 short roots: +-L_i and all (+-L1 +- L2 +- L3 +- L4)/2."""
    out = [L(i).scale(s) for i in range(1, 5) for s in (1, -1)]
    half = Fraction(1, 2)
    for signs in itertools.product((1, -1), repeat=4):
        out.append(Weight(tuple(half * s for s in signs)))
    return frozenset(out)

def f4_roots() -> FrozenSet[Weight]:
    return spin8_roots() | f4_short_roots()


# A regular vector that pairs positively with every simple root of
# ``f4_simple_roots`` (in the order listed: 2, 1, 1, 1), so the positive roots
# are those that pair positively with it.
F4_REGULAR = Weight.of(10, 1, 2, 3)


def f4_positive_roots() -> FrozenSet[Weight]:
    """The 24 roots that are nonnegative combinations of the simple ones."""
    return frozenset(r for r in f4_roots() if r.dot(F4_REGULAR) > 0)


# -- Weyl group elements --------------------------------------------------------

DoubledMatrix = Tuple[
    Tuple[int, int, int, int],
    Tuple[int, int, int, int],
    Tuple[int, int, int, int],
    Tuple[int, int, int, int],
]


@lru_cache(maxsize=None)
def _doubled_rho() -> Tuple[Tuple[int, int, int, int], ...]:
    """2 * rho_j for j = 1..4: the doubled lattice basis L1, L1+L2, w5-L4, w5."""
    return tuple(rho(j).doubled_key() for j in range(1, 5))


def _double(c: Scalar) -> int:
    """2c, which must be an integer."""
    two = 2 * Fraction(exact(c))
    if two.denominator != 1:
        raise ValueError(f"entry {c} is not in 1/2 Z")
    return two.numerator


class WeylElement:
    """A 4x4 matrix M with entries in (1/2)Z acting on weight space.

    The one representation is ``doubled`` = 2M, a 4x4 integer matrix; the
    constructor takes M itself and raises ``ValueError`` unless every entry
    lies in (1/2)Z.  Products halve the integer product (2A)(2B) and check
    that the halving is exact.  Elements are assumed orthogonal, as every
    reflection and every product of reflections is.
    """

    __slots__ = ("doubled", "_hash", "_lattice")

    def __init__(self, matrix: Sequence[Sequence[Scalar]]):
        if len(matrix) != 4 or any(len(r) != 4 for r in matrix):
            raise ValueError("need a 4x4 matrix")
        self._set(tuple(tuple(_double(c) for c in row) for row in matrix))

    def _set(self, doubled: DoubledMatrix) -> None:
        self.doubled = doubled
        self._hash = hash(doubled)
        self._lattice = None  # preserves_lattice(), filled on its first call

    @staticmethod
    def _of_doubled(doubled: DoubledMatrix) -> "WeylElement":
        out = object.__new__(WeylElement)
        out._set(doubled)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.doubled == other.doubled

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"WeylElement(doubled={self.doubled})"

    @staticmethod
    def identity() -> "WeylElement":
        return WeylElement._of_doubled(
            tuple(tuple(2 if i == j else 0 for j in range(4)) for i in range(4))
        )

    @staticmethod
    def reflection(root: Weight) -> "WeylElement":
        """2M = 2I - 4 n n^T / (n.n) for n an integer multiple of the root."""
        if root.is_zero():
            raise ValueError("cannot reflect in the zero vector")
        n = root.nums
        norm = sum(x * x for x in n)
        rows = []
        for i in range(4):
            row = []
            for j in range(4):
                q, r = divmod(4 * n[i] * n[j], norm)
                if r:
                    raise ValueError(f"reflection in {root} has an entry outside 1/2 Z")
                row.append((2 if i == j else 0) - q)
            rows.append(tuple(row))
        return WeylElement._of_doubled(tuple(rows))

    def apply(self, w: Weight) -> Weight:
        n = w.nums
        return Weight._of(
            [sum(r * x for r, x in zip(row, n)) for row in self.doubled], 2 * w.den
        )

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        # the sixteen integer sums of (2A)(2B) = 2(2AB), one parity test on
        # their OR, then >> 1, which halves even ints exactly, negative too
        row0, row1, row2, row3 = other.doubled
        b00, b01, b02, b03 = row0
        b10, b11, b12, b13 = row1
        b20, b21, b22, b23 = row2
        b30, b31, b32, b33 = row3
        word = 0
        rows = []
        for a0, a1, a2, a3 in self.doubled:
            s0 = a0 * b00 + a1 * b10 + a2 * b20 + a3 * b30
            s1 = a0 * b01 + a1 * b11 + a2 * b21 + a3 * b31
            s2 = a0 * b02 + a1 * b12 + a2 * b22 + a3 * b32
            s3 = a0 * b03 + a1 * b13 + a2 * b23 + a3 * b33
            word |= s0 | s1 | s2 | s3
            rows.append((s0 >> 1, s1 >> 1, s2 >> 1, s3 >> 1))
        if word & 1:
            raise ValueError("an odd sum halves out of the integers: product entry not in 1/2 Z")
        return WeylElement._of_doubled(tuple(rows))

    def inverse(self) -> "WeylElement":
        # all group elements here are orthogonal, so the transpose inverts
        return WeylElement._of_doubled(tuple(zip(*self.doubled)))

    def is_identity(self) -> bool:
        return self == WeylElement.identity()

    def preserves_lattice(self) -> bool:
        """Every doubled image of 2*rho_j is all even or all odd.

        Computed on the first call and kept in the ``_lattice`` slot.
        """
        if self._lattice is None:
            self._lattice = True
            for key in _doubled_rho():
                image = [sum(r * k for r, k in zip(row, key)) for row in self.doubled]
                if any(v % 2 for v in image) or len({(v // 2) % 2 for v in image}) != 1:
                    self._lattice = False
                    break
        return self._lattice


def generate_group(generators: Sequence[WeylElement]) -> FrozenSet[WeylElement]:
    """Breadth-first closure of the generators under multiplication."""
    for g in generators:
        if not g.preserves_lattice():
            raise ValueError("generator does not preserve the weight lattice")
    seen = {WeylElement.identity()}
    frontier = list(seen)
    while frontier:
        next_frontier = []
        for w in frontier:
            for g in generators:
                x = g * w
                if x not in seen:
                    seen.add(x)
                    if len(seen) > GROUP_ENUMERATION_BOUND:
                        raise ResourceLimitError(
                            f"group enumeration exceeded bound {GROUP_ENUMERATION_BOUND}"
                        )
                    next_frontier.append(x)
        frontier = next_frontier
    return frozenset(seen)


@lru_cache(maxsize=None)
def spin8_reflections() -> Tuple[WeylElement, ...]:
    """The reflections in the four simple roots, which generate W_Spin(8)."""
    return tuple(WeylElement.reflection(r) for r in spin8_simple_roots())


@lru_cache(maxsize=None)
def spin8_weyl() -> FrozenSet[WeylElement]:
    return generate_group(spin8_reflections())


@lru_cache(maxsize=None)
def f4_weyl() -> FrozenSet[WeylElement]:
    return generate_group([WeylElement.reflection(r) for r in f4_simple_roots()])


# -- the order-6 complement and the coset partition ------------------------------


def sigma_tilde_generators() -> Dict[str, WeylElement]:
    """Reflections in w4, w5-w4 and w5 (the complement's three involutions)."""
    return {
        "omega4": WeylElement.reflection(omega(4)),
        "omega5_minus_omega4": WeylElement.reflection(omega(5) - omega(4)),
        "omega5": WeylElement.reflection(omega(5)),
    }


@lru_cache(maxsize=None)
def sigma_tilde_group() -> FrozenSet[WeylElement]:
    return generate_group(list(sigma_tilde_generators().values()))


def coset_partition_of_f4_positives() -> Dict[str, FrozenSet[Weight]]:
    """Partition the 12 positive F4 roots with nontrivial coset by generator.

    A positive root delta is put in the class of generator g when
    s_delta * s_g lies in W_Spin(8) (equivalently the two reflections define
    the same coset).  Long roots have s_delta already in W_Spin(8) and are
    reported under the key "trivial".
    """
    gens = sigma_tilde_generators()
    spin = spin8_weyl()
    classes: Dict[str, List[Weight]] = {k: [] for k in gens}
    classes["trivial"] = []
    for delta in sorted(
        f4_positive_roots(), key=lambda w: tuple(w.coords)
    ):
        s = WeylElement.reflection(delta)
        if s in spin:
            classes["trivial"].append(delta)
            continue
        hits = [k for k, g in gens.items() if (s * g.inverse()) in spin]
        if len(hits) != 1:
            raise AssertionError(
                f"root {delta} matched {len(hits)} coset classes; expected exactly 1"
            )
        classes[hits[0]].append(delta)
    return {k: frozenset(v) for k, v in classes.items()}


class SemidirectReport(NamedTuple):
    spin8_order: int
    f4_order: int
    complement_order: int
    normal: bool
    intersection_trivial: bool
    orders_multiply: bool
    braid_relation: bool

    def ok(self) -> bool:
        return (
            self.normal
            and self.intersection_trivial
            and self.orders_multiply
            and self.braid_relation
            and self.complement_order == 6
        )


def semidirect_report() -> SemidirectReport:
    """Verify the inner semidirect decomposition of W_F4.

    Normality is checked by conjugating the Spin(8) reflection generators by
    the F4 generators.  That suffices: conjugation by g is an automorphism,
    so when it maps the Spin(8) generators into the finite group W_Spin(8) it
    maps W_Spin(8) onto itself; and the g that do so form a subgroup, which
    then holds all of W_F4.
    """
    spin = spin8_weyl()
    f4 = f4_weyl()
    comp = sigma_tilde_group()

    spin_gens = spin8_reflections()
    f4_gens = [WeylElement.reflection(r) for r in f4_simple_roots()]
    normal = all(g * h * g.inverse() in spin for g in f4_gens for h in spin_gens)

    gens = sigma_tilde_generators()
    braid = (
        gens["omega5"]
        == gens["omega4"] * gens["omega5_minus_omega4"] * gens["omega4"]
    )
    return SemidirectReport(
        spin8_order=len(spin),
        f4_order=len(f4),
        complement_order=len(comp),
        normal=normal,
        intersection_trivial=len(spin & comp) == 1
        and next(iter(spin & comp)).is_identity(),
        orders_multiply=len(spin) * len(comp) == len(f4),
        braid_relation=braid,
    )


# -- the symmetric group on three letters and its A2 bookkeeping -----------------


class _Sigma3Fields(NamedTuple):
    perm: Tuple[int, int, int]


class Sigma3Element(_Sigma3Fields):
    """A permutation of {1,2,3}; perm[i-1] is the image of i."""

    __slots__ = ()

    def __new__(cls, perm: Tuple[int, int, int]) -> "Sigma3Element":
        perm = tuple(map(index, perm))
        if sorted(perm) != [1, 2, 3]:
            raise ValueError(f"not a permutation of 1..3: {perm}")
        return super().__new__(cls, perm)

    # validated like the constructor; ``_replace`` builds through ``_make``
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __call__(self, i: int) -> int:
        return self.perm[i - 1]

    def compose(self, other: "Sigma3Element") -> "Sigma3Element":
        """self after other."""
        return Sigma3Element(tuple(self(other(i)) for i in (1, 2, 3)))

    def inverse(self) -> "Sigma3Element":
        return Sigma3Element(tuple(self.perm.index(i) + 1 for i in (1, 2, 3)))

    @property
    def name(self) -> str:
        return _S3_NAMES[self.perm]


_S3_NAMES: Dict[Tuple[int, int, int], str] = {
    (1, 2, 3): "1",
    (1, 3, 2): "s1",
    (2, 1, 3): "s2",
    (3, 1, 2): "s1s2",
    (2, 3, 1): "s2s1",
    (3, 2, 1): "s1s2s1",
}

SIGMA3_NAMES: Tuple[str, ...] = tuple(_S3_NAMES.values())


_S3_BY_NAME: Dict[str, Sigma3Element] = {
    name: Sigma3Element(perm) for perm, name in _S3_NAMES.items()
}


def sigma3_by_name(name: str) -> Sigma3Element:
    if name not in _S3_BY_NAME:
        raise KeyError(f"unknown element name {name!r}; use one of {SIGMA3_NAMES}")
    return _S3_BY_NAME[name]


# gamma functionals on the diagonal coordinates (x1, x2, x3):
#   gamma_1 = x2 - x3, gamma_2 = x1 - x2, gamma_3 = x1 - x3 = gamma_1 + gamma_2
GAMMA_COEFFS: Dict[int, Tuple[int, int, int]] = {
    1: (0, 1, -1),
    2: (1, -1, 0),
    3: (1, 0, -1),
}

# the transposition (i, j) of each root index, read off gamma_k = x_i - x_j:
# s_gamma1 = (2,3), s_gamma2 = (1,2), s_gamma3 = (1,3)
ROOT_TRANSPOSITIONS: Dict[int, Tuple[int, int]] = {
    k: (c.index(1) + 1, c.index(-1) + 1) for k, c in GAMMA_COEFFS.items()
}


@lru_cache(maxsize=None)
def inversion_set(sigma: Sigma3Element) -> FrozenSet[int]:
    """Indices k with sigma^{-1} gamma_k negative (kept per element).

    With (i, j) = ROOT_TRANSPOSITIONS[k], i < j, sigma^{-1} sends
    gamma_k = x_i - x_j to x_{sigma^{-1}(i)} - x_{sigma^{-1}(j)}, which is
    negative exactly when sigma^{-1}(i) > sigma^{-1}(j).
    """
    inv = sigma.inverse()
    return frozenset(k for k, (i, j) in ROOT_TRANSPOSITIONS.items() if inv(i) > inv(j))


def cell_dimension_polynomial() -> Dict[int, int]:
    """Multiplicity-8 cell dimensions: degree 8*|inversions| -> cell count."""
    out: Dict[int, int] = {}
    for name in SIGMA3_NAMES:
        d = 8 * len(inversion_set(sigma3_by_name(name)))
        out[d] = out.get(d, 0) + 1
    return dict(sorted(out.items()))


def sigma3_identification() -> Dict[str, Sigma3Element]:
    """Transposition labels for the three complement reflections.

    The fixed dictionary sends the reflection in w4 to (1,2), in w5-w4 to
    (2,3) and in w5 to (1,3); it extends to a group isomorphism since the
    braid relation maps to (1,2)(2,3)(1,2) = (1,3).
    """
    return {
        "omega4": transposition(1, 2),
        "omega5_minus_omega4": transposition(2, 3),
        "omega5": transposition(1, 3),
    }


def transposition(i: int, j: int) -> Sigma3Element:
    if i == j or not {i, j} <= {1, 2, 3}:
        raise ValueError("need two distinct indices in 1..3")
    perm = [1, 2, 3]
    perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
    return Sigma3Element(tuple(perm))
