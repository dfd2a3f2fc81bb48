"""The exceptional Jordan algebra of Hermitian 3x3 octonion matrices.

A :class:`JordanMatrix` stores the three real diagonal entries and the three
independent octonion slots of

    [[x1,      p,       q ],
     [conj(p), x2,      r ],
     [conj(q), conj(r), x3]]

with the Jordan product a o b = (ab + ba)/2 evaluated through genuine
octonion matrix products (no associativity assumed anywhere).  The module
also provides the projective-point and incidence predicates, the root-space
decomposition of traceless matrices, the cubic determinant form, and the
27x27 operator calculus (multiplication operators, bracket identities).

Canonical ordering of the 27-dimensional basis: the 3 diagonal units, then
the r-slot octonion units e1..e8, then the p-slot, then the q-slot.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from functools import lru_cache
from operator import mul, neg
from typing import List, Optional, Sequence, Tuple

from .octonion import Octonion, _unit_table, mul_into
from .scaled import Scaled, Scalar
from .weyl import GAMMA_COEFFS, ROOT_TRANSPOSITIONS

SLOTS = ("r", "p", "q")  # slot k carries the k-th root space, k = 1, 2, 3
# the cell (i, j), 0-based, of the r, p and q slots: the root space of
# gamma_k = x_i - x_j sits at (i, j) = ROOT_TRANSPOSITIONS[k], 1-based
_OFF_DIAGONAL = tuple((i - 1, j - 1) for i, j in ROOT_TRANSPOSITIONS.values())

_ZERO7 = (0,) * 7


def _conj(v: Sequence[int]) -> Tuple[int, ...]:
    return (v[0], *map(neg, v[1:]))


class OctMatrix3(Scaled):
    """A 3x3 matrix with octonion entries (not necessarily Hermitian).

    Held in the shared store as 72 integer numerators over one denominator:
    entry (i, j) is ``nums[8*e : 8*e + 8]`` with ``e = 3*i + j`` (row-major).
    The product is the bilinear expansion over the octonion unit table
    (:func:`mul_into`, the kernel of ``Octonion.__mul__``) on the integer
    numerators; nothing assumes associativity.  The constructor takes the
    3x3 grid of :class:`Octonion` entries.
    """

    __slots__ = ()
    SIZE = 72

    def __init__(self, rows: Sequence[Sequence[Octonion]]):
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("need a 3x3 entry grid")
        super().__init__([c for r in rows for o in r for c in o.coords])

    def __mul__(self, other: "OctMatrix3") -> "OctMatrix3":
        # only pairs of nonzero 8-blocks reach the unit table
        a = [x if any(x) else None for x in self._chunks(8)]
        b = [x if any(x) else None for x in other._chunks(8)]
        out: List[int] = []
        for i in range(0, 9, 3):
            for j in range(3):
                acc = [0] * 8
                for k in range(3):
                    if a[i + k] and b[3 * k + j]:
                        mul_into(acc, a[i + k], b[3 * k + j])
                out.extend(acc)
        return OctMatrix3._of(out, self.den * other.den)

    def trace(self) -> Octonion:
        e = self._chunks(8)
        return Octonion._of([sum(c) for c in zip(e[0], e[4], e[8])], self.den)

    def commutator(self, other: "OctMatrix3") -> "OctMatrix3":
        return self * other - other * self

    def hermitian_coordinates(self) -> Tuple[Tuple[int, ...], int]:
        """Numerators of the 27 canonical coordinates, over ``den``.

        Raises ``ValueError`` unless the matrix is Hermitian with real diagonal.
        """
        return _hermitian_numerators(self._chunks(8)), self.den


def _is_hermitian(e: Sequence[Tuple[int, ...]]) -> bool:
    """Whether the 3x3 grid of 8-blocks ``e`` (row-major) is Hermitian with
    real diagonal."""
    return all(not any(e[4 * i][1:]) for i in range(3)) and all(
        e[3 * j + i] == _conj(e[3 * i + j]) for i, j in _OFF_DIAGONAL
    )


def _hermitian_numerators(e: Sequence[Tuple[int, ...]]) -> Tuple[int, ...]:
    """The 27 canonical coordinates of the grid ``e`` of :func:`_is_hermitian`;
    ``ValueError`` unless it is Hermitian with real diagonal."""
    if not _is_hermitian(e):
        raise ValueError("matrix is not Hermitian with real diagonal")
    return (e[0][0], e[4][0], e[8][0]) + _slot_blocks(e)


def _slot_blocks(e: Sequence[Tuple[int, ...]]) -> Tuple[int, ...]:
    """The r, p and q blocks of the grid ``e``, in that order, as one tuple."""
    return sum((e[3 * i + j] for i, j in _OFF_DIAGONAL), ())


class JordanMatrix(Scaled):
    """A Hermitian 3x3 octonion matrix in slot coordinates.

    Held in the shared store as its 27 canonical coordinates (see the module
    docstring); ``x1``..``x3`` and the slots ``p``, ``q``, ``r`` are read-only
    views.
    """

    __slots__ = ()
    SIZE = 27

    def __init__(
        self, x1: Scalar, x2: Scalar, x3: Scalar, p: Octonion, q: Octonion, r: Octonion
    ):
        super().__init__((x1, x2, x3) + r.coords + p.coords + q.coords)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def identity() -> "JordanMatrix":
        return JordanMatrix.diagonal(1, 1, 1)

    @staticmethod
    def diagonal(x1: Scalar, x2: Scalar, x3: Scalar) -> "JordanMatrix":
        z = Octonion.zero()
        return JordanMatrix(x1, x2, x3, z, z, z)

    @staticmethod
    def diag_unit(k: int) -> "JordanMatrix":
        """The diagonal idempotent with a single 1 in position k (1-based)."""
        if k not in (1, 2, 3):
            raise ValueError("diagonal index must be 1..3")
        vals = [0] * 3
        vals[k - 1] = 1
        return JordanMatrix.diagonal(*vals)

    @staticmethod
    def from_slots(
        x1: Scalar = 0,
        x2: Scalar = 0,
        x3: Scalar = 0,
        p: Optional[Octonion] = None,
        q: Optional[Octonion] = None,
        r: Optional[Octonion] = None,
    ) -> "JordanMatrix":
        z = Octonion.zero()
        return JordanMatrix(x1, x2, x3, p or z, q or z, r or z)

    @staticmethod
    def slot_unit(slot: str, i: int) -> "JordanMatrix":
        """Basis element with octonion unit e_i in the named slot (p, q or r)."""
        if slot not in SLOTS:
            raise ValueError(f"slot must be one of {SLOTS}, got {slot!r}")
        return JordanMatrix.from_slots(**{slot: Octonion.unit(i)})

    @staticmethod
    def from_matrix(m: OctMatrix3) -> "JordanMatrix":
        return JordanMatrix._of(*m.hermitian_coordinates())

    @staticmethod
    def random_traceless(rng: random.Random, span: int = 3) -> "JordanMatrix":
        x1 = rng.randint(-span, span)
        x2 = rng.randint(-span, span)
        return JordanMatrix.from_slots(
            x1,
            x2,
            -x1 - x2,
            p=Octonion.random(rng, span),
            q=Octonion.random(rng, span),
            r=Octonion.random(rng, span),
        )

    # -- views -----------------------------------------------------------------

    @property
    def x1(self) -> Fraction:
        return Fraction(self.nums[0], self.den)

    @property
    def x2(self) -> Fraction:
        return Fraction(self.nums[1], self.den)

    @property
    def x3(self) -> Fraction:
        return Fraction(self.nums[2], self.den)

    @property
    def r(self) -> Octonion:
        return Octonion._of(self.nums[3:11], self.den)

    @property
    def p(self) -> Octonion:
        return Octonion._of(self.nums[11:19], self.den)

    @property
    def q(self) -> Octonion:
        return Octonion._of(self.nums[19:27], self.den)

    def to_matrix(self) -> OctMatrix3:
        c = self.nums
        x1, x2, x3 = ((v,) + _ZERO7 for v in c[:3])
        r, p, q = c[3:11], c[11:19], c[19:27]
        return OctMatrix3._of(
            x1 + p + q + _conj(p) + x2 + r + _conj(q) + _conj(r) + x3, self.den
        )

    def trace(self) -> Fraction:
        return Fraction(sum(self.nums[:3]), self.den)

    def is_diagonal(self) -> bool:
        return not any(self.nums[3:])

    def slot(self, name: str) -> Octonion:
        if name not in SLOTS:
            raise ValueError(f"slot must be one of {SLOTS}, got {name!r}")
        return getattr(self, name)

    # -- multiplicative structure ---------------------------------------------

    def jordan(self, other: "JordanMatrix") -> "JordanMatrix":
        """The Jordan product (ab + ba) / 2."""
        a, b = self.to_matrix(), other.to_matrix()
        doubled = JordanMatrix.from_matrix(a * b + b * a)
        return doubled._of(doubled.nums, 2 * doubled.den)

    def square(self) -> "JordanMatrix":
        a = self.to_matrix()
        return JordanMatrix.from_matrix(a * a)

    def trace_form(self, other: "JordanMatrix") -> Fraction:
        """The symmetric pairing Re(tr(ab)) via the genuine matrix product."""
        return (self.to_matrix() * other.to_matrix()).trace().real_part()


def is_projective_point(a: JordanMatrix) -> bool:
    """True iff the matrix squares to itself and has trace one."""
    return a.trace() == 1 and a.square() == a


def is_incident(a: JordanMatrix, b: JordanMatrix) -> bool:
    """Incidence predicate Re(tr(ab)) == 0; both inputs must be points."""
    if not is_projective_point(a) or not is_projective_point(b):
        raise ValueError("incidence is defined only for projective points")
    return a.trace_form(b) == 0


def jordan_determinant(a: JordanMatrix) -> Fraction:
    """Cubic form tr(aoaoa)/3 - tr(aoa) tr(a)/2 + tr(a)^3 / 6."""
    sq = a.jordan(a)
    cube = a.jordan(sq)
    t = a.trace()
    return (
        Fraction(1, 3) * cube.trace()
        - Fraction(1, 2) * sq.trace() * t
        + Fraction(1, 6) * t**3
    )


# -- root-space decomposition of traceless matrices ---------------------------


def gamma_value(k: int, x: JordanMatrix) -> Fraction:
    """The k-th diagonal root functional ``GAMMA_COEFFS[k]`` at x: x2-x3,
    x1-x2, x1-x3 for k=1,2,3."""
    if k not in GAMMA_COEFFS:
        raise ValueError("root index must be 1..3")
    return sum(c * v for c, v in zip(GAMMA_COEFFS[k], (x.x1, x.x2, x.x3)))


def slot_of_root(k: int) -> str:
    """Slot letter carrying the k-th root space: r, p, q for k = 1, 2, 3."""
    if k not in (1, 2, 3):
        raise ValueError("root index must be 1..3")
    return SLOTS[k - 1]


def root_space_check(x: JordanMatrix, a: JordanMatrix, k: int) -> bool:
    """Verify [x,[x,a]] == gamma_k(x)^2 * a by exact matrix commutators."""
    if not x.is_diagonal() or x.trace() != 0:
        raise ValueError("x must be diagonal and traceless")
    slot = slot_of_root(k)
    if a.x1 or a.x2 or a.x3 or any(
        not a.slot(s).is_zero() for s in SLOTS if s != slot
    ):
        raise ValueError(f"a must be supported on the {slot!r} slot only")
    xm, am = x.to_matrix(), a.to_matrix()
    double = xm.commutator(xm.commutator(am))
    return double == am.scale(gamma_value(k, x) ** 2)


# -- 27x27 operator calculus ---------------------------------------------------


def _is_diagonal(nums: Tuple[int, ...]) -> bool:
    """True when the 702 off-diagonal entries of a flat 27x27 matrix are 0."""
    return nums.count(0) - nums[::28].count(0) == 702


class LinearOperator27(Scaled):
    """A linear endomorphism of the 27-dimensional space.

    Held in the shared store as one 27x27 integer matrix, flat and
    row-major (entry (i, j) is ``nums[27*i + j]``), over one denominator.
    Sums, products, scaling and commutators run on the integers and reduce
    once; a product with a diagonal factor only scales the rows or the
    columns of the other.  The constructor takes the 27 rows of rational
    entries.
    """

    __slots__ = ()
    SIZE = 729

    def __init__(self, rows: Sequence[Sequence[Scalar]]):
        if len(rows) != 27 or any(len(r) != 27 for r in rows):
            raise ValueError("need a 27x27 matrix")
        super().__init__([c for r in rows for c in r])

    def __mul__(self, other: "LinearOperator27") -> "LinearOperator27":
        # a diagonal factor scales the rows (on the left) or the columns (on
        # the right) of the other; every hat(x) of a diagonal x is one
        den = self.den * other.den
        if _is_diagonal(self.nums):
            scales = [d for d in self.nums[::28] for _ in range(27)]
            return LinearOperator27._of(list(map(mul, other.nums, scales)), den)
        if _is_diagonal(other.nums):
            scales = other.nums[::28] * 27
            return LinearOperator27._of(list(map(mul, self.nums, scales)), den)
        # otherwise an integer matrix product through the nonzero (j, v)
        # entries of each row of other, listed once, then one reduction
        b = [[(j, v) for j, v in enumerate(row) if v] for row in other._chunks(27)]
        out: List[int] = []
        for arow in self._chunks(27):
            orow = [0] * 27
            for k, av in enumerate(arow):
                if av:
                    for j, bv in b[k]:
                        orow[j] += av * bv
            out.extend(orow)
        return LinearOperator27._of(out, den)

    def commutator(self, other: "LinearOperator27") -> "LinearOperator27":
        return self * other - other * self

    def apply(self, a: JordanMatrix) -> JordanMatrix:
        v = a.nums
        return JordanMatrix._of(
            [sum(c * x for c, x in zip(row, v)) for row in self._chunks(27)], self.den * a.den
        )


# A basis matrix is a tuple of terms (row, column, sign, unit): sign * e_unit
# at (row, column), units 0-based.  Off the diagonal, the mirrored entry of
# e_u is conj(e_u) in a Hermitian matrix and -conj(e_u) in a skew one.
_Terms = Tuple[Tuple[int, int, int, int], ...]
_Structure = List[List[List[Tuple[int, int]]]]


def _basis_terms(skew: bool) -> List[_Terms]:
    """The 27 canonical Hermitian basis matrices, or the 45 skew-Hermitian
    ones: e2..e8 on each diagonal entry, then e_u at (i, j) and -conj(e_u) at
    (j, i) for the r, p and q slots and each unit e_u."""
    terms: List[_Terms] = [
        ((k, k, 1, u),) for k in range(3) for u in (range(1, 8) if skew else (0,))
    ]
    for i, j in _OFF_DIAGONAL:
        for u in range(8):
            terms.append(((i, j, 1, u), (j, i, 1 if (u == 0) != skew else -1, u)))
    return terms


def _hermitian_image(x: _Terms, y: _Terms, sign: int) -> Tuple[int, ...]:
    """The 27 canonical coordinates of x y + sign * y x, checked Hermitian.

    Each product runs on the nonzero entries alone, by
    (E_ab e_u)(E_pq e_v) = [b = p] E_aq (e_u e_v) over the octonion unit table.
    """
    table = _unit_table()
    acc = [0] * 72
    for left, right, c in ((x, y, 1), (y, x, sign)):
        for a, b, s, u in left:
            for p, q, t, v in right:
                if b == p:
                    unit_sign, w = table[u][v]
                    acc[8 * (3 * a + q) + w - 1] += c * s * t * unit_sign
    return _hermitian_numerators([tuple(acc[k : k + 8]) for k in range(0, 72, 8)])


@lru_cache(maxsize=None)
def _operator_tables() -> Tuple[_Structure, Tuple[Tuple[Tuple[int, int], ...], ...]]:
    """The Jordan structure tensor and the tilde images of the skew basis.

    ``S[i][j]`` lists (k, 2c) with basis_i o basis_j = sum c * basis_k, that
    is the coordinates of B_i B_j + B_j B_i; ``S[j][i]`` is ``S[i][j]``.
    ``T[m]`` lists (27 k + j, c) with [K_m, B_j] = sum_k c * basis_k, for the
    m-th skew basis matrix K_m of :func:`_basis_terms`.  Built once per
    process, on first use, from the octonion unit table.
    """
    herm, skew = _basis_terms(False), _basis_terms(True)
    struct: _Structure = [[[]] * 27 for _ in range(27)]
    for i in range(27):
        for j in range(i, 27):
            image = _hermitian_image(herm[i], herm[j], 1)
            struct[i][j] = struct[j][i] = [(k, c) for k, c in enumerate(image) if c]
    tilde = []
    for k_m in skew:
        cols = [_hermitian_image(k_m, b, -1) for b in herm]
        tilde.append(tuple(
            (27 * k + j, col[k]) for j, col in enumerate(cols) for k in range(27) if col[k]
        ))
    return struct, tuple(tilde)


def hat_operator(a: JordanMatrix) -> LinearOperator27:
    """Jordan multiplication operator y -> a o y."""
    struct = _operator_tables()[0]
    rows = [[0] * 27 for _ in range(27)]
    for i, ai in enumerate(a.nums):
        if ai:
            srow = struct[i]
            for j in range(27):
                for k, c2 in srow[j]:
                    rows[k][j] += ai * c2
    return LinearOperator27._of(tuple(itertools.chain.from_iterable(rows)), 2 * a.den)


def tilde_operator(s: OctMatrix3) -> LinearOperator27:
    """Matrix-commutator operator y -> [s, y] for skew s (s* = -s), which
    maps Hermitian to Hermitian; ``ValueError`` for any other s.

    The map is linear in s: the sum of s's coordinates on the skew basis of
    :func:`_basis_terms` times the tabled images of that basis.
    """
    e = s._chunks(8)
    if any(e[4 * k][0] for k in range(3)) or any(
        e[3 * j + i] != tuple(-x for x in _conj(e[3 * i + j])) for i, j in _OFF_DIAGONAL
    ):
        raise ValueError("matrix is not skew-Hermitian")
    acc = [0] * 729
    coeffs = e[0][1:] + e[4][1:] + e[8][1:] + _slot_blocks(e)
    for c, image in zip(coeffs, _operator_tables()[1]):
        if c:
            for idx, v in image:
                acc[idx] += c * v
    return LinearOperator27._of(acc, s.den)


def matrix_commutator(a: JordanMatrix, b: JordanMatrix) -> OctMatrix3:
    """The genuine matrix commutator [a, b] (skew, generally not Hermitian)."""
    return a.to_matrix().commutator(b.to_matrix())


def bracket_lemma_parts(x: JordanMatrix, a: JordanMatrix) -> Tuple[bool, bool]:
    """Exact operator identities for diagonal traceless x and Hermitian a:

    (i)  [hat(x), hat(a)] equals 1/4 of the commutator operator of [x, a];
    (ii) [hat(x), [hat(x), hat(a)]] equals 1/4 of hat([x, [x, a]]).
    """
    if not x.is_diagonal() or x.trace() != 0:
        raise ValueError("x must be diagonal and traceless")
    hx, ha = hat_operator(x), hat_operator(a)
    inner = hx.commutator(ha)
    xa = matrix_commutator(x, a)
    first = inner == tilde_operator(xa).scale(Fraction(1, 4))
    double = JordanMatrix.from_matrix(x.to_matrix().commutator(xa))
    second = hx.commutator(inner) == hat_operator(double).scale(Fraction(1, 4))
    return first, second


def bracket_lemma_check(x: JordanMatrix, a: JordanMatrix) -> bool:
    first, second = bracket_lemma_parts(x, a)
    return first and second


def operator_eigenvalue_check(x: JordanMatrix, k: int) -> bool:
    """For diagonal traceless x and every unit a in slot k, verify the double
    operator bracket scales hat(a) by gamma_k(x)^2 / 4."""
    if not x.is_diagonal() or x.trace() != 0:
        raise ValueError("x must be diagonal and traceless")
    hx = hat_operator(x)
    lam = gamma_value(k, x) ** 2 / 4
    for ha in _slot_unit_hats(slot_of_root(k)):
        if hx.commutator(hx.commutator(ha)) != ha.scale(lam):
            return False
    return True


@lru_cache(maxsize=None)
def _slot_unit_hats(slot: str) -> Tuple[LinearOperator27, ...]:
    """hat(a) of the 8 units a of one slot, built once per process."""
    return tuple(hat_operator(JordanMatrix.slot_unit(slot, i)) for i in range(1, 9))


# -- textual form ---------------------------------------------------------------


def format_jordan(a: JordanMatrix) -> str:
    """Canonical text form `x1,x2,x3; p=(..8 entries..); q=(..); r=(..)`."""

    def oct_text(o: Octonion) -> str:
        return "(" + ",".join(str(c) for c in o.coords) + ")"

    return (
        f"{a.x1},{a.x2},{a.x3}; "
        f"p={oct_text(a.p)}; q={oct_text(a.q)}; r={oct_text(a.r)}"
    )


_JORDAN_RE = re.compile(
    r"^\s*(?P<x1>[^,;]+),(?P<x2>[^,;]+),(?P<x3>[^,;]+)\s*;"
    r"\s*p\s*=\s*\((?P<p>[^)]*)\)\s*;"
    r"\s*q\s*=\s*\((?P<q>[^)]*)\)\s*;"
    r"\s*r\s*=\s*\((?P<r>[^)]*)\)\s*$"
)


def parse_jordan(text: str) -> JordanMatrix:
    """Parse the canonical text form produced by :func:`format_jordan`."""
    m = _JORDAN_RE.match(text)
    if not m:
        raise ValueError(
            "expected `x1,x2,x3; p=(a1,..,a8); q=(..); r=(..)` with rational entries"
        )

    def frac(s: str) -> Fraction:
        try:
            return Fraction(s.strip())
        except ValueError as exc:
            raise ValueError(f"bad rational entry {s.strip()!r}") from exc

    def oct_of(group: str) -> Octonion:
        parts = m.group(group).split(",")
        if len(parts) != 8:
            raise ValueError(f"slot {group} needs 8 entries, got {len(parts)}")
        return Octonion.from_coords([frac(s) for s in parts])

    return JordanMatrix.from_slots(
        frac(m.group("x1")),
        frac(m.group("x2")),
        frac(m.group("x3")),
        p=oct_of("p"),
        q=oct_of("q"),
        r=oct_of("r"),
    )
