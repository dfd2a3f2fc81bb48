"""Ordinary and equivariant cohomology presentations of the six-point space."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagoct.cohomology import (
    B_RING,
    BETA_RING,
    E_RING,
    BggContext,
    RestrictionTable,
    bgg_basis_independent,
    echelon_basis,
    matrix_rank,
    beta_to_e,
    coinvariant_generators,
    e_to_beta,
    verify_equivariant_relations,
    verify_frac_identity,
    verify_presentation,
)
from flagoct.groebner import buchberger
from flagoct.poly import elementary_symmetric
from flagoct.scaled import numerators
from flagoct.weyl import SIGMA3_NAMES, sigma3_by_name

X1, X2 = E_RING.gens()
BETA1, BETA2 = BETA_RING.gens()

# the fixed-point restriction of the k-th Euler class at sigma
restriction = RestrictionTable().restriction


def random_e_poly(rng, terms=4):
    p = E_RING.zero()
    for _ in range(terms):
        p = p + E_RING.monomial(
            (rng.randint(0, 2), rng.randint(0, 2)), rng.randint(-3, 3)
        )
    return p


class TestChangeOfVariables:
    def test_e_to_beta_of_generators(self):
        # x1 = 2 beta1 - beta2 and x2 = -beta1 + 2 beta2
        assert e_to_beta(X1) == 2 * BETA1 - BETA2
        assert e_to_beta(X2) == -BETA1 + 2 * BETA2

    def test_beta_to_e_of_generators(self):
        third = Fraction(1, 3)
        assert beta_to_e(BETA1) == third * (2 * X1 + X2)
        assert beta_to_e(BETA2) == third * (X1 + 2 * X2)

    def test_maps_are_mutually_inverse(self):
        rng = random.Random(1)
        for _ in range(15):
            p = random_e_poly(rng)
            assert beta_to_e(e_to_beta(p)) == p

    def test_relation_arguments_become_natural_beta_triple(self):
        # the three rank-8 summand classes (2x1+x2, -x1+x2, -x1-2x2) become
        # 3*(beta1, beta2-beta1, -beta2) after the change of variables
        args = (2 * X1 + X2, -X1 + X2, -X1 - 2 * X2)
        images = tuple(e_to_beta(a) for a in args)
        assert images == (
            3 * BETA1,
            3 * (BETA2 - BETA1),
            -3 * BETA2,
        )


class TestPresentation:
    def test_report_passes(self):
        rep = verify_presentation()
        assert rep.beta_relation_ok
        assert rep.dual_of_beta1_ok
        assert rep.dual_of_beta2_ok
        assert rep.cross_duality_pairing
        assert rep.same_index_products_vanish
        assert rep.dimensions_ok
        assert rep.ideals_coincide

    def test_graded_dimensions(self):
        rep = verify_presentation()
        assert rep.graded_dimensions == (1, 2, 2, 1)

    def test_stated_same_index_pairing_is_a_recorded_discrepancy(self):
        """The same-index product beta1 * (x1(x1+x2)/3) reduces to zero in
        the quotient (the cube of a degree-8 class vanishes); the top class
        is reached by the cross-index products instead.  The report keeps
        both verdicts."""
        rep = verify_presentation()
        assert not rep.stated_duality_pairing

    def test_ideal_coincidence_explicitly(self):
        g2e, g3e = coinvariant_generators(E_RING)
        beta_args = (BETA1, BETA2 - BETA1, -BETA2)
        g2b = elementary_symmetric(2, *beta_args)
        g3b = elementary_symmetric(3, *beta_args)
        assert e_to_beta(g2e) == 9 * g2b
        assert e_to_beta(g3e) == 27 * g3b
        # the quadratic beta generator is minus the displayed relation
        assert g2b == -(BETA1 ** 2 + BETA2 ** 2 - BETA1 * BETA2)

    def test_displayed_beta_relation_lies_in_the_ideal(self):
        g2e, g3e = coinvariant_generators(E_RING)
        gb = buchberger((g2e, g3e))
        relation = beta_to_e(BETA1 ** 2 + BETA2 ** 2 - BETA1 * BETA2)
        assert gb.contains(relation)


class TestBggCalculus:
    def setup_method(self):
        self.ctx = BggContext()

    def test_roots_from_weights(self):
        lam1, lam2 = self.ctx.lam
        assert self.ctx.gamma[1] == 2 * lam1 - lam2
        assert self.ctx.gamma[2] == 2 * lam2 - lam1
        assert self.ctx.gamma[3] == self.ctx.gamma[1] + self.ctx.gamma[2]

    def test_weyl_action_is_involutive(self):
        rng = random.Random(2)
        for _ in range(10):
            p = self.ctx.ring.zero()
            for _ in range(4):
                p = p + self.ctx.ring.monomial(
                    (rng.randint(0, 3), rng.randint(0, 3)), rng.randint(-3, 3)
                )
            for k in (1, 2):
                assert self.ctx.weyl_action(k, self.ctx.weyl_action(k, p)) == p

    def test_simple_reflections_negate_their_roots(self):
        assert self.ctx.weyl_action(1, self.ctx.gamma[1]) == -self.ctx.gamma[1]
        assert self.ctx.weyl_action(2, self.ctx.gamma[2]) == -self.ctx.gamma[2]
        assert self.ctx.weyl_action(1, self.ctx.gamma[2]) == self.ctx.gamma[3]

    def test_divided_difference_on_weights(self):
        lam1, lam2 = self.ctx.lam
        assert self.ctx.divided_difference(1, lam1) == self.ctx.ring.one()
        assert self.ctx.divided_difference(1, lam2).is_zero()
        assert self.ctx.divided_difference(2, lam2) == self.ctx.ring.one()
        assert self.ctx.divided_difference(2, lam1).is_zero()

    def test_chain_from_top_class(self):
        lam1, lam2 = self.ctx.lam
        g1, g2, g3 = (self.ctx.gamma[k] for k in (1, 2, 3))
        basis = self.ctx.bgg_basis()
        assert basis["top"] == Fraction(1, 6) * g1 * g2 * g3
        assert basis["codim1_a"] == Fraction(1, 3) * g2 * g3
        assert basis["codim1_b"] == Fraction(1, 3) * g1 * g3
        assert basis["deg1_a"] == lam1
        assert basis["deg1_b"] == lam2
        assert basis["unit"] == self.ctx.ring.one()

    def test_basis_is_linearly_independent_in_quotient(self):
        assert bgg_basis_independent()

    def test_divided_differences_square_to_zero(self):
        rng = random.Random(3)
        for _ in range(25):
            p = self.ctx.ring.zero()
            for _ in range(4):
                p = p + self.ctx.ring.monomial(
                    (rng.randint(0, 4), rng.randint(0, 4)), rng.randint(-5, 5)
                )
            for k in (1, 2):
                once = self.ctx.divided_difference(k, p)
                assert self.ctx.divided_difference(k, once).is_zero()


class TestTopClassMembership:
    def test_report(self):
        rep = verify_frac_identity()
        assert rep.cross_form_lam1_in_ideal
        assert rep.cross_form_lam2_in_ideal
        assert rep.same_index_products_vanish
        assert rep.s2_generator_in_ideal
        assert not rep.lambda1_alone_in_ideal
        assert rep.passed

    def test_stated_same_index_form_is_a_recorded_discrepancy(self):
        """lam1 * (gamma1*gamma3/3) differs from the top class by something
        outside the symmetric ideal; exact reduction sends that product to
        zero.  The cross-index product lam1 * (gamma2*gamma3/3) does land on
        the top class."""
        rep = verify_frac_identity()
        assert not rep.stated_form_in_ideal

    def test_products_directly(self):
        ctx = BggContext()
        gb = ctx.symmetric_ideal_basis()
        lam1, lam2 = ctx.lam
        third = Fraction(1, 3)
        top = ctx.top_class()
        codim_a = third * ctx.gamma[2] * ctx.gamma[3]
        codim_b = third * ctx.gamma[1] * ctx.gamma[3]
        # dual pairs multiply to the top class
        assert gb.normal_form(lam1 * codim_a - top).is_zero()
        assert gb.normal_form(lam2 * codim_b - top).is_zero()
        # same-index products die
        assert gb.normal_form(lam1 * codim_b).is_zero()
        assert gb.normal_form(lam2 * codim_a).is_zero()


class TestRestrictionTable:
    B1, B2 = B_RING.gens()
    B3 = B1 + B2

    LITERAL = {
        "1": ("b1", "b2", "b3"),
        "s1": ("-b1", "b3", "b2"),
        "s2": ("b3", "-b2", "b1"),
        "s1s2": ("b2", "-b3", "-b1"),
        "s2s1": ("-b3", "b1", "-b2"),
        "s1s2s1": ("-b2", "-b1", "-b3"),
    }

    def lookup(self, text):
        sign = 1
        if text.startswith("-"):
            sign, text = -1, text[1:]
        base = {"b1": self.B1, "b2": self.B2, "b3": self.B3}[text]
        return sign * base

    def test_every_entry(self):
        for name, row in self.LITERAL.items():
            sigma = sigma3_by_name(name)
            for k, text in enumerate(row, start=1):
                assert restriction(sigma, k) == self.lookup(text)

    def test_identity_row_sums(self):
        one = sigma3_by_name("1")
        assert restriction(one, 3) == restriction(one, 1) + restriction(one, 2)

    def test_rows_are_signed_permutations_of_the_identity_row(self):
        base = {self.B1, self.B2, self.B3}
        for name in SIGMA3_NAMES:
            sigma = sigma3_by_name(name)
            row = [restriction(sigma, k) for k in (1, 2, 3)]
            normalized = {p if p.leading_coefficient() > 0 else -p for p in row}
            assert normalized == base


class TestEquivariantRelations:
    def test_report_passes(self):
        rep = verify_equivariant_relations()
        assert rep.symmetric_relations_ok
        assert rep.failures == ()
        assert rep.sum_consistency_ok
        assert rep.absolute_value_multiset_ok
        assert rep.passed

    def test_falsified_rows_are_rejected(self):
        rows = RestrictionTable().rows()
        assert verify_equivariant_relations(rows).passed
        u, _, w = rows["s1"]
        rep = verify_equivariant_relations({**rows, "s1": (u, B_RING.gens()[1], w)})
        assert not rep.symmetric_relations_ok
        assert {name for name, _ in rep.failures} == {"s1"}
        assert not rep.passed

    def test_substitutions_reproduce_base_symmetric_values(self):
        b1, b2 = B_RING.gens()
        base_args = (2 * b1 + b2, -b1 + b2, -(b1 + 2 * b2))
        for name in SIGMA3_NAMES:
            sigma = sigma3_by_name(name)
            u = restriction(sigma, 1)
            v = restriction(sigma, 2)
            args = (2 * u + v, -u + v, -(u + 2 * v))
            for i in (2, 3):
                assert elementary_symmetric(i, *args) == elementary_symmetric(
                    i, *base_args
                )


def reference_rank(rows):
    """Fraction Gauss-Jordan elimination, the rank kernel before integer rows."""
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def seeded_matrix(rng, nrows, ncols, rank, denominators):
    """An nrows x ncols matrix of rank at most ``rank``, with zero rows mixed in.

    Rows are combinations of ``rank`` random rows, so most are dependent;
    with ``denominators`` the entries are fractions that need lcm scaling.
    """
    def entry():
        num = rng.randint(-9, 9)
        return Fraction(num, rng.randint(1, 12)) if denominators else num

    gens = [[entry() for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        if rng.random() < 0.1:
            rows.append([0] * ncols)
            continue
        row = [0] * ncols
        for g in gens:
            c = rng.randint(-3, 3)
            row = [x + c * y for x, y in zip(row, g)]
        rows.append(row)
    return rows


class TestMatrixRank:
    @pytest.mark.parametrize(
        "shape", [(12, 5), (5, 12), (8, 8), (24, 14), (1, 7), (7, 1)]
    )
    @pytest.mark.parametrize("denominators", [False, True])
    def test_matches_fraction_reference_on_seeded_matrices(self, shape, denominators):
        rng = random.Random(f"{shape}-{denominators}")
        nrows, ncols = shape
        for trial in range(25):
            rank = rng.randint(0, min(nrows, ncols))
            rows = seeded_matrix(rng, nrows, ncols, rank, denominators)
            expected = reference_rank(rows)
            assert matrix_rank([numerators(r)[0] for r in rows]) == expected

    def test_empty_and_zero_matrices(self):
        assert matrix_rank([]) == 0
        assert matrix_rank([[]]) == 0
        assert matrix_rank([[0, 0, 0], [0, 0, 0]]) == 0
        assert matrix_rank([[0, 0], [0, 3]]) == 1

    def test_large_entries_stay_exact(self):
        big = 10**40
        assert matrix_rank([[big, big + 1], [big + 1, big + 2]]) == 2
        assert matrix_rank([[big, 2 * big], [3 * big + 3, 6 * big + 6]]) == 1

    def test_numerators_scale_a_row_by_the_lcm_of_denominators(self):
        row = [Fraction(1, 4), Fraction(-2, 3), 0, 5]
        assert numerators(row) == ((3, -8, 0, 60), 12)
        assert numerators([2, -7, 0]) == ((2, -7, 0), 1)
        assert numerators([]) == ((), 1)

    def test_fraction_entries_are_refused(self):
        with pytest.raises(TypeError):
            matrix_rank([[Fraction(1, 2), Fraction(1)]])


def reduces_to_zero(row, basis):
    """Whether ``row`` is a rational combination of the echelon ``basis``:
    clear each pivot in turn, in Fractions."""
    r = [Fraction(x) for x in row]
    for b in basis:
        lead = next(i for i, x in enumerate(b) if x)
        r = [x - r[lead] / b[lead] * y for x, y in zip(r, b)]
    return not any(r)


class TestEchelonBasis:
    @pytest.mark.parametrize("shape", [(12, 5), (5, 12), (8, 8), (24, 14), (1, 7), (7, 1)])
    def test_pivots_increase_and_rows_are_primitive(self, shape):
        rng = random.Random(f"echelon-{shape}")
        nrows, ncols = shape
        for _ in range(25):
            rank = rng.randint(0, min(nrows, ncols))
            rows = seeded_matrix(rng, nrows, ncols, rank, False)
            basis = echelon_basis(rows)
            leads = [next(i for i, x in enumerate(b) if x) for b in basis]
            assert leads == sorted(set(leads))
            assert all(gcd(*b) == 1 for b in basis)
            assert all(isinstance(x, int) for b in basis for x in b)

    @pytest.mark.parametrize("shape", [(12, 5), (5, 12), (24, 14)])
    def test_basis_spans_every_row_and_has_the_rank(self, shape):
        rng = random.Random(f"span-{shape}")
        nrows, ncols = shape
        for _ in range(25):
            rank = rng.randint(0, min(nrows, ncols))
            rows = [numerators(r)[0] for r in seeded_matrix(rng, nrows, ncols, rank, True)]
            basis = echelon_basis(rows)
            assert all(reduces_to_zero(r, basis) for r in rows)
            assert matrix_rank(rows + basis) == matrix_rank(rows) == len(basis)
            assert len(basis) == reference_rank(rows)

    def test_empty_and_zero_matrices(self):
        assert echelon_basis([]) == []
        assert echelon_basis([[]]) == []
        assert echelon_basis([[0, 0, 0], [0, 0, 0]]) == []
        assert echelon_basis([[0, 0], [0, -6], [0, 4]]) == [[0, 1]]
