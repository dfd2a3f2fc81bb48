"""The checks of the octonion suite: the composition law, alternativity,
conjugation and the basis table of the octonions.

See :mod:`flagoct.suites` for what a declaration is and how it runs.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from typing import List

from . import octonion
from .report import Declaration


def declarations(seed: int, degree_cutoff: int, corrupt: bool) -> List[Declaration]:
    rng = random.Random(seed)
    Octonion = octonion.Octonion
    pairs = [(Octonion.random(rng), Octonion.random(rng)) for _ in range(100)]

    def corrupted_product(x, y):
        # falsified fixture: drops the sign flip in the second component
        return (x * y) + Octonion.unit(2).scale(Fraction(1, 7))

    def composes(product, sample) -> bool:
        return all(
            product(x, y).norm_squared() == x.norm_squared() * y.norm_squared()
            for (x, y) in sample
        )

    def witness() -> bool:
        a, b, c, assoc = octonion.associativity_witness()
        return (
            not assoc.is_zero()
            and assoc == Octonion.unit(8).scale(2)
            and (a * b) * c == -(a * (b * c))
        )

    def table() -> bool:
        t = octonion.multiplication_table()
        return (
            all(t[0][j] == (1, j + 1) and t[j][0] == (1, j + 1) for j in range(8))
            and all(t[i][i] == (-1, 1) for i in range(1, 8))
            and all(
                t[i][j][1] != 1 and t[i][j][0] in (1, -1)
                for i in range(1, 8)
                for j in range(1, 8)
                if i != j
            )
        )

    return [
        ("composition-law", "N(xy) = N(x) N(y) on 100 seeded pairs",
         "multiplicativity of the octonion norm",
         lambda: composes(corrupted_product if corrupt else operator.mul, pairs)),
        ("alternativity", "x(xy) = (xx)y and (yx)x = y(xx) on 100 seeded pairs",
         "alternativity of the octonion product",
         lambda: all(
             x * (x * y) == (x * x) * y and (y * x) * x == y * (x * x)
             for (x, y) in pairs
         )),
        ("conjugation-norm", "x conj(x) = N(x) on 100 seeded elements",
         "norm via conjugation",
         lambda: all(
             (x * x.conjugate()).is_real()
             and (x * x.conjugate()).real_part() == x.norm_squared()
             for (x, _) in pairs
         )),
        ("nonassociativity-witness", "(e2 e3) e5 = -e2 (e3 e5), associator 2 e8",
         "stored non-associativity witness", witness),
        ("multiplication-table", "unit row/column, squares -1, signed-unit products",
         "basis multiplication table structure", table),
        ("negative-control-composition",
         "falsified product is rejected by the composition-law check",
         "negative control", lambda: not composes(corrupted_product, pairs[:10])),
    ]
