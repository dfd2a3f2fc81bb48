"""The checks of the gkm suite: the Euler realization, moment-graph
membership and the free-rank table.

See :mod:`flagoct.suites` for what a declaration is and how it runs.
"""

from __future__ import annotations

import random
from typing import Dict, List

from . import cohomology, gkm, weyl
from .poly import Polynomial
from .report import Declaration, Outcome


def declarations(seed: int, degree_cutoff: int, corrupt: bool) -> List[Declaration]:
    rng = random.Random(seed)
    real = gkm.cached_realization

    def perturbed(t: Dict[str, Polynomial]) -> Dict[str, Polynomial]:
        # falsified fixture: adds 1 to the entry at the identity vertex
        return {**t, "1": t["1"] + cohomology.B_RING.one()}

    def signs() -> Outcome:
        r = real()
        return (
            r.additivity_with_canonical_signs and r.vanishing_combination is not None,
            f"canonical signs {r.canonical_signs}, vanishing combination "
            f"{r.vanishing_combination}",
        )

    def graph_shape() -> bool:
        edges = gkm.gkm_edges()
        valences = [
            sum(1 for e in edges if name in (e.u, e.v)) for name in weyl.SIGMA3_NAMES
        ]
        return len(edges) == 9 and valences == [3] * 6

    def random_members() -> bool:
        tuples = [gkm.random_membership_tuple(rng) for _ in range(30)]
        return all(
            gkm.check_membership(perturbed(t) if corrupt else t).ok for t in tuples
        )

    def predicates_agree() -> bool:
        tuples = [gkm.random_arbitrary_tuple(rng) for _ in range(30)]
        return all(gkm.p1_p2_equivalence(t)[2] for t in tuples)

    def free_rank() -> Outcome:
        rows = gkm.free_rank_check(degree_cutoff)
        return (
            all(computed == predicted for (_, computed, predicted) in rows),
            "; ".join(f"deg {d}: {c}/{p}" for (d, c, p) in rows),
        )

    return [
        ("euler-squares",
         "the three realized Euler products square to the displayed "
         "invariant squares",
         "Euler class squares", lambda: real().squares_match_display),
        ("euler-coprime",
         "the three realized Euler products are pairwise coprime "
         "(no shared linear factor)",
         "pairwise coprimality", lambda: real().coprime),
        ("euler-signs",
         "canonical lexicographic signs satisfy the additive relation "
         "c1 + c2 = c3; a signed vanishing combination exists",
         "sign resolution of the label sum relation", signs),
        ("graph-shape", "moment graph has 6 vertices of valence 3 and 9 edges",
         "graph of the six fixed points", graph_shape),
        ("membership-random",
         "30 seeded tuples built from restriction classes satisfy every edge "
         "condition",
         "membership of restriction-generated tuples", random_members),
        ("membership-classes", "the three basic restriction tuples are members",
         "membership of the Euler class tuples",
         lambda: all(
             gkm.check_membership(gkm.restriction_class_tuple(k)).ok
             for k in (1, 2, 3)
         )),
        ("p1-p2-equivalence",
         "inversion-restricted and full edge predicates agree on 30 seeded "
         "arbitrary tuples",
         "equivalence of the two membership predicates", predicates_agree),
        ("free-rank",
         f"graded ranks match the free-module prediction for even degrees "
         f"<= {degree_cutoff}",
         "equivariant formality rank table", free_rank),
        ("negative-control-membership",
         "tuple with one perturbed vertex entry is rejected",
         "negative control",
         lambda: not gkm.check_membership(perturbed(gkm.restriction_class_tuple(1))).ok),
    ]
