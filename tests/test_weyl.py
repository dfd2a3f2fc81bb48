"""Root systems, reflection groups, and the six-element quotient action."""

import itertools
from fractions import Fraction

import pytest

from flagoct.weyl import (
    F4_REGULAR,
    GAMMA_COEFFS,
    SIGMA3_NAMES,
    L,
    Sigma3Element,
    Weight,
    WeylElement,
    _DOUBLED_RHO,
    cell_dimension_polynomial,
    coset_partition_of_f4_positives,
    f4_positive_roots,
    f4_roots,
    f4_simple_roots,
    f4_short_roots,
    f4_weyl,
    inversion_set,
    is_spin8_element,
    omega,
    semidirect_report,
    sigma3_by_name,
    sigma3_identification,
    sigma_tilde_generators,
    sigma_tilde_group,
    spin8_reflections,
    spin8_roots,
    spin8_simple_roots,
    spin8_weyl,
    transposition,
)


def ref_act_on_functional(sigma, coeffs):
    """(sigma . gamma)(x) = gamma(sigma^{-1} x) on coefficient vectors."""
    inv = sigma.inverse()
    return tuple(coeffs[inv(j) - 1] for j in (1, 2, 3))


def ref_act_on_gamma(sigma, k):
    """(sign, j) with sigma . gamma_k = sign * gamma_j, found by acting on the
    coefficient vector of gamma_k and matching it against the signed gammas:
    the package's former inversion-set computation, kept as the reference."""
    image = ref_act_on_functional(sigma, GAMMA_COEFFS[k])
    for j, base in GAMMA_COEFFS.items():
        if image == base:
            return 1, j
        if image == tuple(-c for c in base):
            return -1, j
    raise AssertionError(f"image {image} is not a signed gamma functional")


class TestWeights:
    def test_lattice_membership(self):
        assert L(1).is_lattice()
        assert omega(5).is_lattice()  # all-halves vector
        assert not Weight.of(Fraction(1, 2), 0, 0, 0).is_lattice()

    def test_omega_values(self):
        for i in range(1, 5):
            assert omega(i) == L(i)
        assert omega(5) == Weight.of(
            Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)
        )

    def test_arithmetic(self):
        w = omega(5) - omega(4)
        assert w == Weight.of(
            Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)
        )
        assert (w + omega(4)).dot(omega(5)) == 1

    def test_reflection_formula(self):
        # reflecting L2 in L1 - L2 swaps the first two coordinates
        s = WeylElement.reflection(L(1) - L(2))
        assert s.apply(L(2)) == L(1)
        assert s.apply(L(1) + L(2)) == L(1) + L(2)

    def test_doubled_rho_is_the_doubled_lattice_basis(self):
        # derived from rho(j).doubled_key(); the literal is the former table
        assert _DOUBLED_RHO == ((2, 0, 0, 0), (2, 2, 0, 0), (1, 1, 1, -1), (1, 1, 1, 1))


class TestRootSystems:
    def test_spin8_has_24_roots(self):
        roots = spin8_roots()
        assert len(roots) == 24
        assert all(r.dot(r) == 2 for r in roots)

    def test_f4_adds_24_short_roots(self):
        short = f4_short_roots()
        assert len(short) == 24
        assert all(r.dot(r) == 1 for r in short)
        assert len(f4_roots()) == 48
        assert f4_roots() == spin8_roots() | short

    def test_root_sets_are_negation_closed(self):
        for roots in (spin8_roots(), f4_roots()):
            assert all(-r in roots for r in roots)

    def test_regular_vector_is_positive_on_the_simple_roots(self):
        assert [r.dot(F4_REGULAR) for r in f4_simple_roots()] == [2, 1, 1, 1]
        # and orthogonal to no root, so it splits the roots in two halves
        assert all(r.dot(F4_REGULAR) != 0 for r in f4_roots())

    def test_positive_roots_are_the_nonnegative_simple_combinations(self):
        # in the order of f4_simple_roots (Bourbaki's reversed) the highest
        # root L1 + L4 is 2a1 + 4a2 + 3a3 + 2a4, so coefficients up to 4
        # reach every positive root
        simple = f4_simple_roots()
        combinations = set()
        for coeffs in itertools.product(range(5), repeat=4):
            v = Weight.zero()
            for c, r in zip(coeffs, simple):
                v = v + r.scale(c)
            combinations.add(v)
        positive = f4_positive_roots()
        assert len(positive) == 24
        assert positive == f4_roots() & combinations
        assert positive | {-r for r in positive} == f4_roots()


class TestWeylGroups:
    def test_group_orders(self):
        assert len(spin8_weyl()) == 192
        assert len(f4_weyl()) == 1152

    def test_spin8_sits_inside_f4(self):
        w8 = spin8_weyl()
        assert all(w in f4_weyl() for w in w8)
        assert all(is_spin8_element(w) for w in w8)

    def test_reflections_are_involutions(self):
        for root in list(f4_roots())[:8]:
            s = WeylElement.reflection(root)
            assert not s.is_identity()
            assert (s * s).is_identity()

    def test_spin8_reflections_negate_their_simple_roots(self):
        for root, s in zip(spin8_simple_roots(), spin8_reflections(), strict=True):
            assert s.apply(root) == -root
            assert is_spin8_element(s)

    def test_action_is_orthogonal(self):
        s = WeylElement.reflection(omega(5))
        u, v = L(1) + L(3), L(2) - L(4)
        assert s.apply(u).dot(s.apply(v)) == u.dot(v)

    def test_spin8_elements_are_even_signed_permutations(self):
        # type D Weyl group: signed permutations with evenly many sign flips
        for w in list(spin8_weyl())[:20]:
            ok, minus_count = w.is_signed_permutation()
            assert ok and minus_count % 2 == 0


class TestSemidirectStructure:
    def test_report(self):
        rep = semidirect_report()
        assert rep.spin8_order == 192
        assert rep.f4_order == 1152
        assert rep.complement_order == 6
        assert rep.normal
        assert rep.intersection_trivial
        assert rep.orders_multiply
        assert rep.braid_relation
        assert rep.ok()

    def test_complement_generators(self):
        gens = sigma_tilde_generators()
        assert set(gens) == {"omega4", "omega5_minus_omega4", "omega5"}
        # each generating reflection is an involution outside the normal part
        for w in gens.values():
            assert (w * w).is_identity()
            assert not is_spin8_element(w)
        assert len(sigma_tilde_group()) == 6

    def test_braid_relation_explicitly(self):
        gens = sigma_tilde_generators()
        lhs = gens["omega5"]
        rhs = gens["omega4"] * gens["omega5_minus_omega4"] * gens["omega4"]
        assert lhs == rhs

    def test_coset_partition_sizes(self):
        part = coset_partition_of_f4_positives()
        assert set(part) == {"omega4", "omega5_minus_omega4", "omega5", "trivial"}
        # 12 long positive roots reflect inside the normal subgroup; the 12
        # short ones split 4+4+4 across the three complement generators
        assert len(part["trivial"]) == 12
        for key in ("omega4", "omega5_minus_omega4", "omega5"):
            assert len(part[key]) == 4
        union = frozenset().union(*part.values())
        assert len(union) == 24
        assert sum(len(v) for v in part.values()) == 24


class TestSigma3:
    def test_names_and_composition(self):
        # derived from the permutation-to-name table; the literal is the former tuple
        assert SIGMA3_NAMES == ("1", "s1", "s2", "s1s2", "s2s1", "s1s2s1")
        s1, s2 = sigma3_by_name("s1"), sigma3_by_name("s2")
        assert s1.compose(s1).is_identity()
        assert s1.compose(s2).name == "s1s2"
        assert s2.compose(s1).name == "s2s1"
        assert s1.compose(s2).compose(s1).name == "s1s2s1"

    def test_generators_are_adjacent_transpositions(self):
        # s1 swaps indices 2,3; s2 swaps 1,2; the long element swaps 1,3
        s1 = sigma3_by_name("s1")
        assert (s1(1), s1(2), s1(3)) == (1, 3, 2)
        s2 = sigma3_by_name("s2")
        assert (s2(1), s2(2), s2(3)) == (2, 1, 3)
        w0 = sigma3_by_name("s1s2s1")
        assert (w0(1), w0(2), w0(3)) == (3, 2, 1)

    def test_transposition_constructor(self):
        assert transposition(2, 3).name == "s1"
        assert transposition(1, 2).name == "s2"
        assert transposition(1, 3).name == "s1s2s1"

    def test_all_six_listed(self):
        assert [sigma3_by_name(name).name for name in SIGMA3_NAMES] == list(SIGMA3_NAMES)
        assert len({sigma3_by_name(name) for name in SIGMA3_NAMES}) == 6

    def test_inverses(self):
        assert sigma3_by_name("s1s2").inverse().name == "s2s1"
        assert sigma3_by_name("s1s2s1").inverse().name == "s1s2s1"


class TestInversionCombinatorics:
    EXPECTED = {
        "1": frozenset(),
        "s1": frozenset({1}),
        "s2": frozenset({2}),
        "s1s2": frozenset({1, 3}),
        "s2s1": frozenset({2, 3}),
        "s1s2s1": frozenset({1, 2, 3}),
    }

    def test_inversion_sets_entry_for_entry(self):
        for name, expected in self.EXPECTED.items():
            assert inversion_set(sigma3_by_name(name)) == expected

    def test_cell_dimension_polynomial(self):
        assert cell_dimension_polynomial() == {0: 1, 8: 2, 16: 2, 24: 1}

    def test_cell_dimensions_come_from_inversions(self):
        # each inversion contributes one 8-dimensional cell factor
        poly = {}
        for name in SIGMA3_NAMES:
            d = 8 * len(inversion_set(sigma3_by_name(name)))
            poly[d] = poly.get(d, 0) + 1
        assert poly == cell_dimension_polynomial()

    def test_gamma_action_signs(self):
        # sigma sends gamma_k to +/- gamma_j; the sign is negative exactly
        # when k lies in the inversion set of sigma^{-1}, and the index map
        # k -> j is a permutation inverted by sigma^{-1}
        for name in SIGMA3_NAMES:
            sigma = sigma3_by_name(name)
            inv = inversion_set(sigma.inverse())
            targets = set()
            for k in (1, 2, 3):
                sign, j = ref_act_on_gamma(sigma, k)
                targets.add(j)
                assert sign in (1, -1)
                assert (sign == -1) == (k in inv)
                assert ref_act_on_gamma(sigma.inverse(), j) == (sign, k)
            assert targets == {1, 2, 3}


class TestIdentification:
    def test_reflections_match_quotient_permutations(self):
        ident = sigma3_identification()
        assert set(ident) == {"omega4", "omega5_minus_omega4", "omega5"}
        assert ident["omega4"].name == "s2"
        assert {s.name for s in ident.values()} == {"s1", "s2", "s1s2s1"}
        # all three images are transpositions
        for s in ident.values():
            assert s.compose(s).is_identity()
            assert not s.is_identity()
