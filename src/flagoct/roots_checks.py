"""The checks of the roots suite: the Weyl groups, their semidirect
decomposition and the inversion table.

See :mod:`flagoct.suites` for what a declaration is and how it runs.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List

from . import weyl
from .report import Declaration, Outcome


def declarations(seed: int, degree_cutoff: int, corrupt: bool) -> List[Declaration]:
    semidirect = functools.cache(weyl.semidirect_report)
    expected_inversions = {
        "1": frozenset(),
        "s1": frozenset({1}),
        "s2": frozenset({2}),
        "s1s2": frozenset({1, 3}),
        "s2s1": frozenset({2, 3}),
        "s1s2s1": frozenset({1, 2, 3}),
    }
    # falsified fixture: s1 inverts gamma_1, not gamma_2
    falsified_inversions = {**expected_inversions, "s1": frozenset({2})}

    @functools.cache
    def inversions() -> Dict[str, frozenset]:
        return {
            name: weyl.inversion_set(weyl.sigma3_by_name(name))
            for name in weyl.SIGMA3_NAMES
        }

    def order(group: Callable[[], frozenset], expected: int) -> Outcome:
        size = len(group())
        return size == expected, f"got {size}"

    def complement() -> Outcome:
        sd = semidirect()
        return (
            sd.complement_order == 6 and sd.intersection_trivial and sd.orders_multiply,
            f"complement order {sd.complement_order}, "
            f"intersection trivial: {sd.intersection_trivial}, "
            f"orders multiply: {sd.orders_multiply}",
        )

    def braid() -> bool:
        gens = weyl.sigma_tilde_generators()
        rhs = gens["omega4"] * gens["omega5_minus_omega4"]
        if not corrupt:
            rhs = rhs * gens["omega4"]
        return gens["omega5"] == rhs

    def partition() -> Outcome:
        sizes = {k: len(v) for k, v in weyl.coset_partition_of_f4_positives().items()}
        ok = all(sizes.get(k) == 4 for k in ("omega4", "omega5_minus_omega4", "omega5"))
        return ok, f"sizes {sizes}"

    def cell_polynomial() -> Outcome:
        cells = weyl.cell_dimension_polynomial()
        return cells == {0: 1, 8: 2, 16: 2, 24: 1}, f"got {cells}"

    def identification() -> bool:
        ident = weyl.sigma3_identification()
        return ident["omega4"].name == "s2" and {
            e.name for e in ident.values()
        } == {"s1", "s2", "s1s2s1"}

    return [
        ("weyl-order-spin8", "|W(Spin 8)| = 192", "rank-4 even signed permutations",
         lambda: order(weyl.spin8_weyl, 192)),
        ("weyl-order-f4", "|W(F4)| = 1152", "full reflection group order",
         lambda: order(weyl.f4_weyl, 1152)),
        ("normality",
         "the rank-4 group is normal in the big group "
         "(generator conjugation closure)",
         "normal subgroup verification", lambda: semidirect().normal),
        ("complement-subgroup",
         "the three distinguished reflections generate an order-6 complement "
         "meeting the normal subgroup trivially",
         "semidirect decomposition", complement),
        ("braid-identity",
         "the third distinguished reflection equals the palindromic word in "
         "the other two",
         "reflection braid relation", braid),
        ("root-partition", "the 12 extra positive roots split 4+4+4 by coset",
         "4+4+4 partition of short positive roots", partition),
        ("inversion-table",
         "inversion sets match the fixed six-row table entry-for-entry",
         "inversion sets of the six elements",
         lambda: inversions()
         == (falsified_inversions if corrupt else expected_inversions)),
        ("cell-polynomial",
         "cell-dimension generating polynomial is 1 + 2 t^8 + 2 t^16 + t^24",
         "Poincare polynomial of the six cells", cell_polynomial),
        ("complement-identification",
         "the three reflections map to the three transpositions of the "
         "abstract symmetric group",
         "complement as symmetric group on three letters", identification),
        ("negative-control-inversions", "falsified inversion table is rejected",
         "negative control", lambda: inversions() != falsified_inversions),
    ]
