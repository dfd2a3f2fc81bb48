"""The checks of the cohomology suite: the coinvariant presentation, the
divided-difference basis and the restriction table.

See :mod:`flagoct.suites` for what a declaration is and how it runs.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from typing import List

from . import cohomology
from .report import Declaration, Outcome


def declarations(seed: int, degree_cutoff: int, corrupt: bool) -> List[Declaration]:
    rng = random.Random(seed)
    presentation = functools.cache(cohomology.verify_presentation)
    context = functools.cache(cohomology.BggContext)

    @functools.cache
    def rows():
        return cohomology.RestrictionTable().rows()

    def falsified_rows():
        # falsified fixture: the true middle entry of the s1 row is b1 + b2
        u, _, w = rows()["s1"]
        return {**rows(), "s1": (u, cohomology.B_RING.gens()[1], w)}

    def relations_hold(table) -> bool:
        return cohomology.verify_equivariant_relations(table).passed

    def identities() -> bool:
        pres = presentation()
        return (
            pres.beta_relation_ok
            and pres.dual_of_beta1_ok
            and pres.dual_of_beta2_ok
            and pres.ideals_coincide
        )

    def pairing() -> Outcome:
        pres = presentation()
        return (
            pres.cross_duality_pairing and pres.same_index_products_vanish,
            "literally-stated same-index pairing holds: "
            f"{pres.stated_duality_pairing} (known discrepancy; the "
            "cross-index pairing is the one realized by the computation)",
        )

    def frac_identity() -> Outcome:
        frac = cohomology.verify_frac_identity()
        return (
            frac.passed,
            f"stated same-index form in ideal: {frac.stated_form_in_ideal}; "
            f"cross forms in ideal: {frac.cross_form_lam1_in_ideal}, "
            f"{frac.cross_form_lam2_in_ideal}",
        )

    def chain() -> bool:
        ctx = context()
        basis = ctx.bgg_basis()
        g1, g2, g3 = ctx.gamma[1], ctx.gamma[2], ctx.gamma[3]
        lam1, lam2 = ctx.lam
        third = Fraction(1, 3)
        expected = {
            "top": Fraction(1, 6) * g1 * g2 * g3,
            "codim1_a": third * g2 * g3,
            "codim1_b": third * g1 * g3,
            "deg1_a": lam1,
            "deg1_b": lam2,
            "unit": ctx.ring.one(),
        }
        return all(basis[k] == expected[k] for k in expected)

    def squares_zero() -> bool:
        ctx = context()
        lam1, lam2 = ctx.lam
        samples = []
        for _ in range(30):
            p = ctx.ring.zero()
            for e1 in range(4):
                for e2 in range(4 - e1):
                    p = p + Fraction(rng.randint(-3, 3)) * lam1**e1 * lam2**e2
            samples.append(p)
        return all(
            ctx.divided_difference(k, ctx.divided_difference(k, p)) == ctx.ring.zero()
            for p in samples
            for k in (1, 2)
        )

    return [
        ("graded-dimensions",
         "quotient dimensions (1,2,2,1) in degrees 0,8,16,24; total 6",
         "Euler characteristic 6",
         lambda: (presentation().dimensions_ok,
                  f"got {presentation().graded_dimensions}")),
        ("presentation-identities",
         "beta relation, duality squares, and ideal coincidence",
         "degree-8 presentation identities", identities),
        ("duality-pairing-form",
         "cross-index duality products equal the top class; same-index "
         "products vanish in the quotient",
         "duality pairing of degree-8 classes", pairing),
        ("frac-identity",
         "degree-2 times degree-4 classes represent the top class modulo the "
         "invariant ideal (cross pairing)",
         "sixth-of-product representation of the point class", frac_identity),
        ("bgg-chain",
         "divided differences of the top class reproduce the five basis "
         "polynomials plus 1",
         "divided-difference basis chain", chain),
        ("bgg-basis-independence",
         "the six chain polynomials are linearly independent",
         "basis property of the chain", cohomology.bgg_basis_independent),
        ("bgg-squares-zero",
         "divided-difference operators square to zero on 30 seeded polynomials",
         "nilpotence of divided differences", squares_zero),
        ("equivariant-relations",
         "all ten fixed-point substitutions reproduce the invariant "
         "symmetric polynomials",
         "fixed-point restriction relations",
         lambda: relations_hold(falsified_rows() if corrupt else rows())),
        ("negative-control-table",
         "perturbed restriction-table entry is rejected by the substitution "
         "check",
         "negative control", lambda: not relations_hold(falsified_rows())),
    ]
