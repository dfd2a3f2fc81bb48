"""Reduced Groebner bases over the rationals (grevlex order).

Buchberger's algorithm, skipping only the pairs that the product criterion
(coprime leading monomials) rules out, is ample for the small graded rings
this package works in (at most 6 variables, at most 30 generators; enforced
via :class:`ResourceLimitError`).  On top of
normal forms the module counts graded quotient dimensions by enumerating
standard monomials, using each ring variable's grading degree.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .poly import (
    Exponents,
    PolyRing,
    Polynomial,
    ResourceLimitError,
    RingMismatchError,
    divisor,
    grevlex_key,
    reduce_terms,
    scaled_terms,
)

MAX_VARIABLES = 6
MAX_GENERATORS = 30


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Fully reduce f modulo the given (nonzero) polynomials, each step by
    the first of them whose leading monomial divides the leading term."""
    basis = [g for g in basis if not g.is_zero()]
    for g in basis:
        if g.ring != f.ring:
            raise RingMismatchError("basis element in a different ring")
    packing = f.ring.packing
    # over Q: the leading coefficients are Fractions
    remainder: Dict[int, Fraction] = {}
    divisors = [divisor(g.fraction_terms(), max(g.packed)) for g in basis]
    reduce_terms(f.fraction_terms(), divisors, packing, remainder)
    return Polynomial._of(f.ring, *scaled_terms(remainder))


def _s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    ring = f.ring
    fe, ge = f.leading_exponents(), g.leading_exponents()
    l = _lcm(fe, ge)
    mf = Polynomial(ring, {tuple(a - b for a, b in zip(l, fe)): 1 / f.leading_coefficient()})
    mg = Polynomial(ring, {tuple(a - b for a, b in zip(l, ge)): 1 / g.leading_coefficient()})
    return mf * f - mg * g


class GroebnerBasis(NamedTuple):
    """A reduced, monic Groebner basis together with its ring."""

    ring: PolyRing
    elements: Tuple[Polynomial, ...]

    def leading_exponents(self) -> Tuple[Exponents, ...]:
        return tuple(g.leading_exponents() for g in self.elements)

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ring:
            raise RingMismatchError("polynomial not in the basis ring")
        return normal_form(f, self.elements)

    def contains(self, f: Polynomial) -> bool:
        """Ideal membership test."""
        return self.normal_form(f).is_zero()

def buchberger(generators: Sequence[Polynomial]) -> GroebnerBasis:
    """Compute the reduced monic Groebner basis of the generated ideal."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise ValueError("need at least one nonzero generator")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingMismatchError("generators in different rings")
    if ring.nvars > MAX_VARIABLES:
        raise ResourceLimitError(
            f"Groebner computation limited to {MAX_VARIABLES} variables, got {ring.nvars}"
        )
    if len(gens) > MAX_GENERATORS:
        raise ResourceLimitError(
            f"Groebner computation limited to {MAX_GENERATORS} generators, got {len(gens)}"
        )

    basis: List[Polynomial] = [g.monic() for g in gens]
    pairs = list(itertools.combinations(range(len(basis)), 2))
    while pairs:
        i, j = pairs.pop(0)
        fi, fj = basis[i], basis[j]
        ei, ej = fi.leading_exponents(), fj.leading_exponents()
        # product criterion: coprime leading monomials reduce to zero
        if all(min(a, b) == 0 for a, b in zip(ei, ej)):
            continue
        s = normal_form(_s_polynomial(fi, fj), basis)
        if s.is_zero():
            continue
        basis.append(s.monic())
        if len(basis) > 4 * MAX_GENERATORS:
            raise ResourceLimitError("Groebner basis grew beyond configured bounds")
        pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))

    # minimalize: drop elements whose lead is divisible by another lead
    minimal: List[Polynomial] = []
    leads = [g.leading_exponents() for g in basis]
    for idx, g in enumerate(basis):
        e = leads[idx]
        if any(
            k != idx and _divides(leads[k], e) and (leads[k] != e or k < idx)
            for k in range(len(basis))
        ):
            continue
        minimal.append(g)
    # reduce: each element fully reduced against the others
    reduced: List[Polynomial] = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1 :]
        r = normal_form(g, others) if others else g
        if not r.is_zero():
            reduced.append(r.monic())
    reduced.sort(key=lambda g: grevlex_key(g.leading_exponents()))
    return GroebnerBasis(ring, tuple(reduced))


def graded_quotient_dimensions(
    gb: GroebnerBasis, max_degree: int
) -> Dict[int, int]:
    """Dimensions of the graded quotient ring up to the given weighted degree.

    Counts standard monomials (monomials outside the leading-term ideal) in
    each weighted degree 0..max_degree.  Requires homogeneous basis elements
    with respect to the ring's grading, since only then is the quotient
    graded; raises ValueError otherwise.  Standard-monomial counting is valid
    for any one fixed monomial order, so grevlex is used throughout.
    """
    for g in gb.elements:
        if not g.is_homogeneous():
            raise ValueError(
                "graded dimension count needs homogeneous generators; "
                f"got mixed-degree element {g}"
            )
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    ring = gb.ring
    counts = {d: 0 for d in range(max_degree + 1)}
    leads = gb.leading_exponents()

    def visit(prefix: List[int], var: int, wdeg: int) -> None:
        if var == ring.nvars:
            exps = tuple(prefix)
            if not any(_divides(le, exps) for le in leads):
                counts[wdeg] += 1
            return
        step = ring.degrees[var]
        e = 0
        while wdeg + e * step <= max_degree:
            prefix.append(e)
            visit(prefix, var + 1, wdeg + e * step)
            prefix.pop()
            e += 1

    visit([], 0, 0)
    return counts


def quotient_total_dimension(gb: GroebnerBasis) -> Optional[int]:
    """Total dimension of the quotient if finite-dimensional, else None.

    The quotient is finite-dimensional iff every variable appears as a pure
    power among the leading monomials; standard monomials are then bounded
    componentwise by those pure powers, which bounds their weighted degree.
    """
    leads = gb.leading_exponents()
    bound = 0
    for i in range(gb.ring.nvars):
        pure = [
            le[i]
            for le in leads
            if le[i] > 0 and all(le[j] == 0 for j in range(gb.ring.nvars) if j != i)
        ]
        if not pure:
            return None
        bound += (min(pure) - 1) * gb.ring.degrees[i]
    dims = graded_quotient_dimensions(gb, bound)
    return sum(dims.values())
