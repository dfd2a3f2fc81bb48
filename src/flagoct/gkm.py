"""Moment-graph (GKM) model for the equivariant cohomology and K-theory of
the flag.

The graph has the six permutations of {1,2,3} as vertices and an edge
{sigma, t.sigma} for every transposition t (left multiplication), nine edges
in all.  Each edge class carries a divisor in each of four coefficient rings:

* Hb, coefficients in Q[b1,b2]: the edges of the transposition fixing 1
  (i.e. (2,3)) carry b1, the edges of (1,2) carry b2, and the edges of
  (1,3) carry b3 = b1 + b2.  This pairing of transpositions to labels is
  forced by the fixed-point restriction classes: it is the unique one under
  which their difference along every edge is divisible by the edge label.
* HT, coefficients in Q[rho1..rho4]: each label becomes the
  torus-equivariant Euler class of the corresponding eight-dimensional
  representation, a product of four linear forms, W-invariant and pairwise
  coprime across classes.
* RT and RX, the representation ring as characters or as integer
  polynomials in X1..X4: the divisors of ``flagoct.ktheory``.

A tuple assigns one entry per vertex; it is a member when every edge
difference is divisible by the divisor of the edge's class in the entries'
ring, with HT entries additionally required to be W-invariant.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

# ktheory is read as an attribute inside the RT and RX code, so that the
# rest compiles without it (the package registers its modules lazily)
from . import ktheory
from .cohomology import B_RING, RestrictionTable, abstract_label, echelon_basis, matrix_rank
from .poly import (
    FormProduct,
    PolyRing,
    Polynomial,
    ResourceLimitError,
    RingMismatchError,
    Scalar,
    elementary_symmetric,
    exact_divide,
    pairwise_coprime,
)
from .weyl import (
    ROOT_TRANSPOSITIONS,
    SIGMA3_NAMES,
    L,
    cell_dimension_polynomial,
    inversion_set,
    rho,
    sigma3_by_name,
    spin8_reflections,
    transposition,
)

RHO_RING = PolyRing.make(("rho1", "rho2", "rho3", "rho4"), (2, 2, 2, 2))

# The largest degree cutoff of the free-rank table.  The table's work grows
# quickly with the degree (its top rows have the most unknowns), so the
# check and the CLI refuse a larger one.
MAX_DEGREE_CUTOFF = 24


class GkmEdge(NamedTuple):
    u: str
    v: str
    k: int  # edge class = root index of the transposition


@functools.cache
def gkm_edges() -> Tuple[GkmEdge, ...]:
    """The nine unordered edges {sigma, t sigma}, one record per edge."""
    edges = []
    seen = set()
    for k, (i, j) in ROOT_TRANSPOSITIONS.items():
        t = transposition(i, j)
        for name in SIGMA3_NAMES:
            sigma = sigma3_by_name(name)
            other = t.compose(sigma)
            key = frozenset((sigma.name, other.name))
            if key in seen:
                continue
            seen.add(key)
            edges.append(GkmEdge(sigma.name, other.name, k))
    return tuple(edges)


class MembershipResult(NamedTuple):
    ok: bool
    failing_edge: Optional[GkmEdge]
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


# -- Weyl action on the realized coefficient ring -------------------------------


def _linear(coeffs: Sequence[Scalar]) -> Polynomial:
    """The linear form sum(coeffs[i] * rho_(i+1)) of Q[rho1..rho4]; a weight
    is the form of its rho-coordinates."""
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    return Polynomial(RHO_RING, dict(zip(units, coeffs)))


def l_polynomials() -> Tuple[Polynomial, ...]:
    """The four orthonormal coordinate weights as elements of Q[rho1..rho4]."""
    return tuple(_linear(L(i).rho_coordinates()) for i in range(1, 5))


@functools.cache
def generator_substitutions() -> Tuple[Dict[str, Polynomial], ...]:
    """Substitution maps for the four simple reflections of W_Spin(8)."""
    return tuple(
        {f"rho{j}": _linear(w.apply(rho(j)).rho_coordinates()) for j in range(1, 5)}
        for w in spin8_reflections()
    )


def is_w_invariant(p: Polynomial) -> bool:
    """Invariance under the reflection group generators (hence the group)."""
    if p.ring != RHO_RING:
        raise RingMismatchError("invariance is defined for the realized ring")
    return all(p.substitute(s) == p for s in generator_substitutions())


# -- realized labels -------------------------------------------------------------


def displayed_euler_products() -> Dict[str, FormProduct]:
    """The three four-factor products exactly as displayed.

    In L-coordinates these expand to the weight products of the three
    eight-dimensional representations: the vector one for the first, the two
    half-spin ones for the others.
    """
    return {
        "b1T": FormProduct(
            Fraction(1),
            (
                _linear((1, 0, 0, 0)),  # rho1
                _linear((-1, 1, 0, 0)),  # rho2 - rho1
                _linear((0, 0, -1, 1)),  # rho4 - rho3
                _linear((0, -1, 1, 1)),  # rho4 - rho2 + rho3
            ),
        ),
        "b2T": FormProduct(
            Fraction(1),
            (
                _linear((0, 0, 0, 1)),  # rho4
                _linear((0, -1, 0, 1)),  # rho4 - rho2
                _linear((-1, 0, 1, 0)),  # rho3 - rho1
                _linear((1, -1, 1, 0)),  # rho3 - rho2 + rho1
            ),
        ),
        "b3T": FormProduct(
            Fraction(1),
            (
                _linear((0, 0, 1, 0)),  # rho3
                _linear((0, -1, 1, 0)),  # rho3 - rho2
                _linear((-1, 0, 0, 1)),  # rho4 - rho1
                _linear((1, -1, 0, 1)),  # rho4 - rho2 + rho1
            ),
        ),
    }


class EulerRealization(NamedTuple):
    """The three displayed Euler-class products plus computed findings.

    ``canonical_signs`` normalizes each product so its leading coefficient
    (grevlex) is positive; with those signs the additivity
    b1T + b2T = b3T holds exactly, mirroring the abstract relation
    b3 = b1 + b2.  ``vanishing_combination`` is the sign pattern
    (s1, s2, s3) with s1*b1T + s2*b2T + s3*b3T = 0 for the displayed signs.
    ``expanded`` holds the three products multiplied out.
    """

    b1T: FormProduct
    b2T: FormProduct
    b3T: FormProduct
    expanded: Tuple[Polynomial, Polynomial, Polynomial]
    squares_match_display: bool
    coprime: bool
    canonical_signs: Tuple[int, int, int]
    additivity_with_canonical_signs: bool
    vanishing_combination: Optional[Tuple[int, int, int]]

    def products(self) -> Tuple[FormProduct, FormProduct, FormProduct]:
        return (self.b1T, self.b2T, self.b3T)

    def realized_label(self, k: int) -> Polynomial:
        """Label of edge class k: the canonically signed k-th product."""
        return self.expanded[k - 1] * self.canonical_signs[k - 1]

    @property
    def passed(self) -> bool:
        return (
            self.squares_match_display
            and self.coprime
            and self.additivity_with_canonical_signs
        )


def realize_in_bt() -> EulerRealization:
    prods = displayed_euler_products()
    b1T, b2T, b3T = prods["b1T"], prods["b2T"], prods["b3T"]

    # squaring each factor list must reproduce the displayed squares
    squares_ok = True
    for fp in (b1T, b2T, b3T):
        doubled = FormProduct(fp.scalar**2, fp.forms + fp.forms)
        squares_ok = squares_ok and doubled.expand() == fp.expand() * fp.expand()

    expanded = tuple(fp.expand() for fp in (b1T, b2T, b3T))
    if not all(map(is_w_invariant, expanded)):
        raise AssertionError("a realized label is not W-invariant")

    coprime, _ = pairwise_coprime((b1T, b2T, b3T))

    def lex_leading_coefficient(p: Polynomial) -> Fraction:
        return p.terms[max(p.terms)]

    canonical = tuple(
        1 if lex_leading_coefficient(p) > 0 else -1 for p in expanded
    )
    additive = (
        expanded[0] * canonical[0] + expanded[1] * canonical[1]
        == expanded[2] * canonical[2]
    )
    vanishing = None
    for signs in itertools.product((1, -1), repeat=3):
        if sum(
            (p * s for p, s in zip(expanded, signs)), RHO_RING.zero()
        ).is_zero():
            vanishing = signs
            break
    return EulerRealization(
        b1T=b1T,
        b2T=b2T,
        b3T=b3T,
        expanded=expanded,
        squares_match_display=squares_ok,
        coprime=coprime,
        canonical_signs=canonical,
        additivity_with_canonical_signs=additive,
        vanishing_combination=vanishing,
    )


@functools.cache
def cached_realization() -> EulerRealization:
    """The realization, built once per process.  The cache wraps this
    function, not ``realize_in_bt``, so that profilers and the benchmark's
    tracer still see the build as ``realize_in_bt``'s own code."""
    return realize_in_bt()


def realized_label(k: int) -> Polynomial:
    return cached_realization().realized_label(k)


def label_hyperplanes(k: int) -> Tuple[Polynomial, ...]:
    prods = cached_realization().products()
    return prods[k - 1].forms


# -- membership -------------------------------------------------------------------


def _restriction_images(ring: PolyRing, form: Polynomial) -> Dict[str, Polynomial]:
    """Images of the variables under restriction to the kernel of the
    linear ``form``.

    The form's leading variable (grevlex leads a linear form with its first
    variable of nonzero coefficient) is solved for in the others, as itself
    less the monic form; every other variable maps to itself.
    """
    images = {name: ring.var(name) for name in ring.names}
    pivot = ring.names[form.leading_exponents().index(1)]
    images[pivot] = images[pivot] - form.monic()
    return images


# The GKM rings by their names on the command line: the ring of the entries
# (characters for RT), as a function that returns it, the divisor of class-k
# edges, and what a difference that fails on such an edge is not ((i, j) is
# the transposition of the class).  The RT and RX rows read ktheory only when
# they are called.  The realized labels and the binomial products are
# multiplied out on each call: they are the products the membership-stream
# benchmark counts.
RINGS = {
    "Hb": (lambda: B_RING, abstract_label, "a multiple of the class-{k} label"),
    "HT": (lambda: RHO_RING, realized_label, "a multiple of the class-{k} label"),
    "RT": (lambda: ktheory.Character, lambda k: ktheory.edge_divisor_char(k),
           "divisible by the class-{k} binomial product"),
    "RX": (lambda: ktheory.X_RING, lambda k: ktheory.edge_divisor_poly(k), "a multiple of X{i}-X{j}"),
}


def membership_ring(entries: Mapping[str, Any]) -> str:
    """The ring of a six-vertex tuple, read from its entries: "Hb", "HT" or
    "RX" for polynomials in ``B_RING``, ``RHO_RING`` or ``X_RING``, "RT" for
    characters.

    Raises ValueError for a missing vertex, polynomials in no GKM ring or an
    RX entry with a non-integer coefficient, RingMismatchError for
    polynomials in two rings and TypeError for entries that are neither all
    polynomials nor all characters.
    """
    missing = [n for n in SIGMA3_NAMES if n not in entries]
    if missing:
        raise ValueError(f"missing vertex entries: {missing}")
    odd = [name for name, v in entries.items() if not isinstance(v, Polynomial)]
    if len(odd) == len(entries) and all(isinstance(v, ktheory.Character) for v in entries.values()):
        return "RT"
    if odd:
        raise TypeError(f"entries must be all polynomials or all characters; offending: {odd}")
    expected = next(iter(entries.values())).ring
    for name, p in entries.items():
        if p.ring != expected:
            raise RingMismatchError(
                f"entry {name!r} lives in {p.ring.names}, expected {expected.names}"
            )
    ring = next((name for name, row in RINGS.items() if row[0]() == expected), None)
    if ring is None:
        raise ValueError(f"entries live in {expected.names}, which is not a GKM ring")
    if ring == "RX":
        for name, p in entries.items():
            if not p.is_integral():
                raise ValueError(f"entry {name!r} must have integer coefficients")
    return ring


def _edge_divisors(ring: str) -> Dict[int, Any]:
    """The divisor of each edge class in ``ring``."""
    return {k: RINGS[ring][1](k) for k in ROOT_TRANSPOSITIONS}


def _divides(d: Any, f: Any) -> bool:
    """True iff ``d`` divides ``f``, as polynomials or as characters."""
    if isinstance(f, Polynomial):
        return exact_divide(f, d) is not None
    return ktheory.divides_char(d, f)


def check_membership(entries: Mapping[str, Any]) -> MembershipResult:
    """The GKM condition in the ring of the entries (:func:`membership_ring`):
    on every edge {u, v} of class k, entries[u] - entries[v] is divisible by
    the ring's class-k divisor.  HT entries must also be W-invariant.  The
    first edge that fails is reported."""
    ring = membership_ring(entries)
    if ring == "HT":
        for name in SIGMA3_NAMES:
            if not is_w_invariant(entries[name]):
                return MembershipResult(
                    False, None, f"entry at vertex {name!r} is not W-invariant"
                )
    divisors = _edge_divisors(ring)
    for edge in gkm_edges():
        if not _divides(divisors[edge.k], entries[edge.u] - entries[edge.v]):
            i, j = ROOT_TRANSPOSITIONS[edge.k]
            wording = RINGS[ring][2].format(k=edge.k, i=i, j=j)
            return MembershipResult(
                False, edge, f"difference along {{{edge.u},{edge.v}}} is not {wording}"
            )
    return MembershipResult(True, None)


def p1_p2_equivalence(entries: Mapping[str, Any]) -> Tuple[bool, bool, bool]:
    """Evaluate the inversion-set-restricted predicate and the full one.

    Returns (restricted, full, agree).  The restricted form checks each
    sigma only against the roots gamma with sigma^{-1} gamma negative; since
    every unordered edge has exactly one endpoint inverting its root, the two
    predicates test identical difference/divisor pairs.
    """
    full = check_membership(entries).ok
    divisors = _edge_divisors(membership_ring(entries))
    restricted = True
    for name in SIGMA3_NAMES:
        sigma = sigma3_by_name(name)
        for k in inversion_set(sigma):
            other = transposition(*ROOT_TRANSPOSITIONS[k]).compose(sigma)
            if not _divides(divisors[k], entries[name] - entries[other.name]):
                restricted = False
    return restricted, full, restricted == full


# -- random tuples for property checks -------------------------------------------


def random_membership_tuple(rng: random.Random, degree: int = 2) -> Dict[str, Polynomial]:
    """A guaranteed member: polynomial in the two restriction classes."""
    table = RestrictionTable()
    rows = [
        (table.restriction(sigma, 1), table.restriction(sigma, 2))
        for sigma in map(sigma3_by_name, SIGMA3_NAMES)
    ]
    entries = {name: B_RING.zero() for name in SIGMA3_NAMES}
    # random polynomial P(c1, c2) with coefficients in Q[b1,b2]
    for _ in range(rng.randint(1, 4)):
        d1, d2 = rng.randint(0, degree), rng.randint(0, degree)
        scalar = rng.randint(-3, 3)
        cdeg = rng.randint(0, 1)
        coeff = B_RING.monomial((rng.randint(0, cdeg), rng.randint(0, cdeg)), scalar)
        for name, (u, v) in zip(SIGMA3_NAMES, rows):
            entries[name] = entries[name] + coeff * u**d1 * v**d2
    return entries


def random_arbitrary_tuple(rng: random.Random, degree: int = 2) -> Dict[str, Polynomial]:
    """Each entry is sum(c * b1^e1 * b2^e2) over e1 + e2 <= degree, with
    seeded c in [-2, 2]."""
    entries = {}
    for name in SIGMA3_NAMES:
        entries[name] = Polynomial(
            B_RING,
            {
                (e1, e2): rng.randint(-2, 2)
                for e1 in range(degree + 1)
                for e2 in range(degree + 1 - e1)
            },
        )
    return entries


def restriction_class_tuple(k: int) -> Dict[str, Polynomial]:
    """The tuple of fixed-point restrictions of the k-th Euler class."""
    table = RestrictionTable()
    return {name: table.restriction(sigma3_by_name(name), k) for name in SIGMA3_NAMES}


# -- free-rank verification --------------------------------------------------------


# polynomial degrees of the basic invariants s1, s2, l1*l2*l3*l4, s3
_INVARIANT_DEGREES = (2, 4, 4, 6)


def _basic_invariants() -> Tuple[Polynomial, ...]:
    """The basic invariants, in the order of ``_INVARIANT_DEGREES``.

    They are the elementary symmetric functions s1, s2, s3 of the squared
    coordinate weights and the product of the weights; the invariant ring
    is free on them.
    """
    ls = l_polynomials()
    sq = [l * l for l in ls]
    s1, s2, s3 = (elementary_symmetric(i, *sq) for i in (1, 2, 3))
    return (s1, s2, ls[0] * ls[1] * ls[2] * ls[3], s3)


@functools.cache
def _invariant_exponents(poly_degree: int) -> Tuple[Tuple[int, ...], ...]:
    """Exponent vectors e with sum(e_i * _INVARIANT_DEGREES[i]) equal to
    ``poly_degree``, in lexicographic order.  The order depends only on the
    degrees, so the m-th monomial in the images of the invariants is the
    image of the m-th monomial in the invariants."""
    out: List[Tuple[int, ...]] = []

    def rec(prefix: Tuple[int, ...], deg_left: int) -> None:
        if len(prefix) == len(_INVARIANT_DEGREES):
            if deg_left == 0:
                out.append(prefix)
            return
        d = _INVARIANT_DEGREES[len(prefix)]
        for e in range(deg_left // d + 1):
            rec(prefix + (e,), deg_left - e * d)

    rec((), poly_degree)
    return tuple(out)


def predicted_rank(degree: int) -> int:
    """Coefficient of t^degree in the cell polynomial 1+2t^8+2t^16+t^24
    (:func:`flagoct.weyl.cell_dimension_polynomial`) times the series of
    H*(BM), which is free on the basic invariants in twice their polynomial
    degrees."""
    return sum(
        n * len(_invariant_exponents((degree - c) // 2))
        for c, n in cell_dimension_polynomial().items()
        if degree >= c and (degree - c) % 2 == 0
    )


def _invariant_monomials(
    gens: Sequence[Polynomial],
    poly_degree: int,
    built: Optional[Dict[Tuple[int, ...], Polynomial]] = None,
) -> List[Polynomial]:
    """Monomials in ``gens`` of total polynomial degree ``poly_degree``, in
    the order of :func:`_invariant_exponents`.

    ``gens`` stand for the basic invariants (or their images under a ring
    map) and are weighted by ``_INVARIANT_DEGREES``.  ``built`` keeps the
    monomials of ``gens`` by exponent vector across calls: each new one is a
    kept one of lower degree times one generator, that of its first nonzero
    exponent.
    """
    if built is None:
        built = {}
    if not built:
        built[(0,) * len(gens)] = gens[0].ring.one()
    out = []
    for e in _invariant_exponents(poly_degree):
        if e not in built:
            i = next(i for i, k in enumerate(e) if k)
            lower = e[:i] + (e[i] - 1,) + e[i + 1 :]
            if lower not in built:
                _invariant_monomials(gens, poly_degree - _INVARIANT_DEGREES[i], built)
            built[e] = built[lower] * gens[i]
        out.append(built[e])
    return out


def _integral_rows(restricted: Sequence[Polynomial]) -> List[Sequence[int]]:
    """One integer row per monomial of the restricted basis, in sorted order.

    Entry m of a row is the monomial's coefficient in ``restricted[m]``,
    filled from the nonzero terms alone.  The basis is integral: the basic
    invariants are, and each label form leads with +-1, so its monic form and
    the restriction images are integral too.
    """
    rows: Dict[int, List[int]] = {}
    for m, p in enumerate(restricted):
        for k, c in p.packed.items():
            row = rows.get(k)
            if row is None:
                row = rows[k] = [0] * len(restricted)
            row[m] = c
    return [rows[k] for k in sorted(rows)]


def free_rank_check(degree_cutoff: int = 8) -> List[Tuple[int, int, int]]:
    """Degreewise dimension of the realized GKM solution space vs prediction.

    For each even cohomological degree d <= cutoff, unknowns are one
    invariant-basis coefficient vector per vertex; constraints force every
    edge difference to vanish on the four hyperplanes of the edge label.
    Restriction to a hyperplane is a ring map, so the basic invariants are
    restricted once per distinct hyperplane and each basis monomial
    restricts to the same monomial in their images.  The rows each edge
    class imposes are integers; they are reduced once per class to an
    echelon basis over Z, which spans the same rows, and the rank of the
    constraints built from those bases is taken over Z.
    Returns (degree, computed, predicted) rows.
    """
    if degree_cutoff % 2 != 0 or degree_cutoff < 0:
        raise ValueError("degree cutoff must be a nonnegative even integer")
    if degree_cutoff > MAX_DEGREE_CUTOFF:
        raise ResourceLimitError(f"free-rank check is bounded at degree {MAX_DEGREE_CUTOFF}")
    invariants = _basic_invariants()
    # the basic invariants restricted to each label hyperplane, with the
    # edge class of the label; a hyperplane whose restricted invariants
    # repeat an earlier one of its class gives the same rows and is skipped
    restricted: Dict[Tuple[int, Tuple[Polynomial, ...]], Dict] = {}
    for k in ROOT_TRANSPOSITIONS:
        for form in label_hyperplanes(k):
            images = _restriction_images(RHO_RING, form)
            restricted.setdefault((k, tuple(g.substitute(images) for g in invariants)), {})
    rows: List[Tuple[int, int, int]] = []
    edges = gkm_edges()
    vertex_index = {name: i for i, name in enumerate(SIGMA3_NAMES)}
    for d in range(0, degree_cutoff + 1, 2):
        # the rows each edge class imposes on the coefficient vector of its
        # edge difference (the hyperplanes of a class often give the same
        # rows, which echelon_basis drops); nb is the same for every hyperplane
        blocks: Dict[int, List[Sequence[int]]] = {k: [] for k in ROOT_TRANSPOSITIONS}
        for (k, gens), built in restricted.items():
            basis = _invariant_monomials(gens, d // 2, built)
            nb = len(basis)
            blocks[k].extend(_integral_rows(basis))
        if nb == 0:
            rows.append((d, 0, predicted_rank(d)))
            continue
        # a row space is unchanged by reduction to an echelon basis, so the
        # constraint matrix has the rank of the full one with far fewer rows
        reduced = {k: echelon_basis(block) for k, block in blocks.items()}
        constraints: List[List[int]] = []
        for edge in edges:
            iu, iv = vertex_index[edge.u], vertex_index[edge.v]
            for block in reduced[edge.k]:
                row = [0] * (6 * nb)
                row[iu * nb : (iu + 1) * nb] = block
                row[iv * nb : (iv + 1) * nb] = [-c for c in block]
                constraints.append(row)
        rank = matrix_rank(constraints)
        rows.append((d, 6 * nb - rank, predicted_rank(d)))
    return rows
