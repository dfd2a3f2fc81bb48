"""The checks of the ktheory suite: the character factorizations, invariance
and the two divisibility styles.

See :mod:`flagoct.suites` for what a declaration is and how it runs.
"""

from __future__ import annotations

import functools
import random
from typing import List

from . import gkm, ktheory, weyl
from .report import Declaration, Outcome


def declarations(seed: int, degree_cutoff: int, corrupt: bool) -> List[Declaration]:
    rng = random.Random(seed)
    rhs = functools.cache(ktheory.factorization_rhs)

    @functools.cache
    def falsified_rhs():
        # falsified fixture: an extra monomial factor on the X1 - X2 side
        return {**rhs(), "X1-X2": rhs()["X1-X2"] * ktheory.y(1)}

    @functools.cache
    def facts():
        return ktheory.verify_factorizations(falsified_rhs() if corrupt else rhs())

    def invariance() -> bool:
        return all(
            ktheory.weyl_act(w, ktheory.x_character(i)) == ktheory.x_character(i)
            for w in weyl.spin8_weyl()
            for i in (1, 2, 3, 4)
        )

    def permutations() -> Outcome:
        perms = ktheory.x_action_permutations()
        names = {k: v.name for k, v in perms.items()}
        ok = set(names.values()) == {"s1", "s2", "s1s2s1"} and names["omega4"] == "s2"
        return ok, f"computed assignment {names}"

    def roundtrip() -> bool:
        samples = []
        for _ in range(15):
            exps = [0, 0, 0, 0]
            for _ in range(rng.randint(0, 3)):
                exps[rng.randint(0, 3)] += 1
            samples.append(ktheory.X_RING.monomial(exps, rng.randint(1, 3)))
        noninv = ktheory.to_x_polynomial(
            ktheory.y(1) + ktheory.Character.monomial(-weyl.omega(1))
        )
        return noninv is None and all(
            ktheory.to_x_polynomial(ktheory.expand_x_polynomial(p)) == p
            for p in samples
        )

    def agreement() -> Outcome:
        eq = ktheory.equivalence_spotcheck(20, seed)
        return (
            eq.passed,
            f"forward {eq.forward_agreements}/{eq.trials}, "
            f"negative {eq.negative_agreements}/{eq.trials}",
        )

    def tautological() -> bool:
        taut = ktheory.tautological_tuple()
        expanded = {n: ktheory.expand_x_polynomial(p) for n, p in taut.items()}
        return gkm.check_membership(taut).ok and gkm.check_membership(expanded).ok

    def binomials() -> bool:
        samples = [
            (ktheory.expand_x_polynomial(ktheory.random_x_polynomial(rng)),
             weyl.L(rng.randint(1, 4)))
            for _ in range(20)
        ]
        return all(
            ktheory.divides_char(ktheory.binomial(w), f) == ktheory.binomial_divides(w, f)
            for (f, w) in samples
        )

    return [
        ("X1-X2-factorization",
         "X1 - X2 equals the displayed shifted product of four binomials",
         "first difference factorization", lambda: facts().x1_minus_x2_ok),
        ("X1-X3-factorization",
         "X1 - X3 equals the displayed product of four spin binomials",
         "second difference factorization", lambda: facts().x1_minus_x3_ok),
        ("X3-X2-factorization",
         "X3 - X2 equals the displayed product of four binomials",
         "third difference factorization", lambda: facts().x3_minus_x2_ok),
        ("weyl-invariance", "X1..X4 fixed by all 192 rank-4 Weyl elements",
         "invariance of the basic characters", invariance),
        ("x-permutation-action",
         "the three distinguished reflections realize the three "
         "transpositions of {X1, X2, X3}",
         "permutation action on the basic characters", permutations),
        ("adjoint-display-gap",
         "the 24-term display differs from the full adjoint character by "
         "exactly the 4 zero weights",
         "zero-weight gap of the adjoint display",
         lambda: (ktheory.x4_display_discrepancy() == 4,
                  "display stored verbatim; adjoint = display + 4")),
        ("x-roundtrip",
         "to-polynomial after expansion is the identity on 15 seeded "
         "monomials; non-invariant input reports not-invariant",
         "polynomial/character round trip", roundtrip),
        ("rt-rx-agreement",
         "character-ring and polynomial-ring divisibility agree on 20 seeded "
         "positives and 20 negatives",
         "equivalence of the two divisibility styles", agreement),
        ("tautological-membership",
         "the tautological tuple passes both membership styles",
         "tautological class membership", tautological),
        ("binomial-division-agreement",
         "exact division and coset projection agree for single binomial "
         "divisors on 20 seeded characters",
         "two implementations of binomial divisibility", binomials),
        ("negative-control-factorization",
         "falsified factorization (extra monomial factor) is rejected",
         "negative control",
         lambda: not ktheory.verify_factorizations(falsified_rhs()).x1_minus_x2_ok),
    ]
