"""Moment-graph membership tests for the six-fixed-point torus action."""

import random
from fractions import Fraction

import pytest

from flagoct.cohomology import B_RING, RestrictionTable
from flagoct.gkm import (
    RHO_RING,
    ROOT_TRANSPOSITIONS,
    CohTuple,
    abstract_label,
    bm_degrees,
    cached_realization,
    check_membership,
    displayed_euler_products,
    free_rank_check,
    gkm_edges,
    is_w_invariant,
    label_hyperplanes,
    p1_p2_equivalence,
    predicted_rank,
    random_arbitrary_tuple,
    random_membership_tuple,
    realized_label,
    restriction_class_tuple,
    _basic_invariants,
    _invariant_monomials,
    _restriction_images,
)
from flagoct.ktheory import (
    check_k_membership_rt,
    check_k_membership_x,
    edge_divisor_poly,
    expand_x_polynomial,
)
from flagoct.poly import exact_divide, pairwise_coprime
from flagoct.weyl import SIGMA3_NAMES, sigma3_by_name, transposition


class TestGraphShape:
    def test_nine_edges_six_vertices_valence_three(self):
        edges = gkm_edges()
        assert len(edges) == 9
        for name in SIGMA3_NAMES:
            assert sum(1 for e in edges if name in (e.u, e.v)) == 3

    def test_edges_join_left_translates_by_class_transposition(self):
        for e in gkm_edges():
            i, j = ROOT_TRANSPOSITIONS[e.k]
            t = transposition(i, j)
            assert t.compose(sigma3_by_name(e.u)).name == e.v

    def test_three_edges_per_class(self):
        by_class = {}
        for e in gkm_edges():
            by_class.setdefault(e.k, []).append(e)
        assert {k: len(v) for k, v in by_class.items()} == {1: 3, 2: 3, 3: 3}

    def test_edges_are_deduplicated(self):
        seen = {frozenset((e.u, e.v)) for e in gkm_edges()}
        assert len(seen) == 9


class TestEulerRealization:
    def test_realization_report(self):
        real = cached_realization()
        assert real.squares_match_display
        assert real.coprime
        assert real.passed

    def test_products_are_pairwise_coprime(self):
        prods = list(displayed_euler_products().values())
        ok, witness = pairwise_coprime(prods)
        assert ok and witness is None

    def test_each_product_has_four_linear_factors(self):
        for fp in displayed_euler_products().values():
            assert len(fp.forms) == 4
            assert fp.expand().total_degree() == 4

    def test_canonical_signs_and_additivity(self):
        real = cached_realization()
        assert real.canonical_signs == (-1, 1, 1)
        assert real.additivity_with_canonical_signs
        c1, c2, c3 = (real.realized_label(k) for k in (1, 2, 3))
        assert c1 + c2 == c3

    def test_vanishing_combination(self):
        real = cached_realization()
        s1, s2, s3 = real.vanishing_combination
        combo = (
            s1 * real.b1T.expand()
            + s2 * real.b2T.expand()
            + s3 * real.b3T.expand()
        )
        assert combo.is_zero()

    def test_realized_labels_are_invariant(self):
        for k in (1, 2, 3):
            assert is_w_invariant(realized_label(k))

    def test_labels_factor_into_their_hyperplanes(self):
        for k in (1, 2, 3):
            label = realized_label(k)
            for form in label_hyperplanes(k):
                quotient = exact_divide(label, form)
                assert quotient is not None


class TestMembership:
    def test_restriction_class_tuples_are_members(self):
        for k in (1, 2, 3):
            t = restriction_class_tuple(k)
            assert check_membership(t).ok

    def test_random_membership_tuples(self):
        rng = random.Random(0)
        for _ in range(10):
            t = random_membership_tuple(rng)
            result = check_membership(t)
            assert result.ok, result.reason

    def test_perturbed_tuple_fails_with_named_edge(self):
        t = restriction_class_tuple(1)
        entries = dict(t.entries)
        entries["s1"] = entries["s1"] + B_RING.one()
        bad = CohTuple("Hb", entries)
        result = check_membership(bad)
        assert not result.ok
        assert result.failing_edge is not None
        assert "s1" in (result.failing_edge.u, result.failing_edge.v)

    def test_constant_tuples_are_members(self):
        entries = {name: 5 * B_RING.one() for name in SIGMA3_NAMES}
        assert check_membership(CohTuple("Hb", entries)).ok

    def test_mode_validation(self):
        entries = {name: B_RING.one() for name in SIGMA3_NAMES}
        with pytest.raises(ValueError):
            CohTuple("XX", entries)
        missing = {name: B_RING.one() for name in SIGMA3_NAMES[:-1]}
        with pytest.raises(ValueError):
            CohTuple("Hb", missing)

    def test_realized_mode_rejects_non_invariant_entries(self):
        rho1 = RHO_RING.gens()[0]
        entries = {name: rho1 for name in SIGMA3_NAMES}
        result = check_membership(CohTuple("HT", entries))
        assert not result.ok
        assert "invariant" in result.reason


def vanishes_on_hyperplanes(p, forms):
    """True iff p restricts to zero on the kernel of every given form."""
    return all(p.substitute(_restriction_images(p.ring, form)).is_zero() for form in forms)


def hyperplane_membership(t):
    """The hyperplane formulation of HT membership, kept as a reference:
    invariant entries whose difference along every edge vanishes on the four
    hyperplanes of the edge's label.  It equals the division test since each
    label is a product of four pairwise non-proportional linear forms.
    Returns the verdict and the first failing edge, in ``gkm_edges`` order."""
    if not all(is_w_invariant(p) for p in t.entries.values()):
        return False, None
    for e in gkm_edges():
        if not vanishes_on_hyperplanes(t.entry(e.u) - t.entry(e.v), label_hyperplanes(e.k)):
            return False, e
    return True, None


def realized_tuple(entries):
    """Hb entries mapped into HT by b1 -> b1T and b2 -> b2T (so b3 -> b3T)."""
    images = {"b1": realized_label(1), "b2": realized_label(2)}
    return CohTuple("HT", {name: p.substitute(images) for name, p in entries.items()})


class TestHyperplaneFormulation:
    def test_division_agrees_with_the_hyperplane_reference(self):
        rng = random.Random(13)
        b1 = B_RING.gens()[0]
        verdicts = set()
        for build in (random_membership_tuple, random_arbitrary_tuple):
            for i in range(4):
                entries = build(rng, 1).entries
                # a member broken at one vertex by b1: its class-1 edges
                # still divide, so it fails at a later edge
                broken = {**entries, SIGMA3_NAMES[i]: entries[SIGMA3_NAMES[i]] + b1}
                for t in map(realized_tuple, (entries, broken)):
                    result = check_membership(t)
                    assert (result.ok, result.failing_edge) == hyperplane_membership(t)
                    verdicts.add(result.ok)
        assert verdicts == {True, False}


class TestOneEdgeLoop:
    """The four rings' checks run one edge loop and differ only in the label.
    A tuple that is zero but at vertex 1, where it is the product of the
    class-1 and class-2 labels, fails at the class-3 edge at vertex 1."""

    @pytest.mark.parametrize("ring", ["Hb", "HT", "RT", "RX"])
    def test_fails_at_the_one_edge_whose_label_does_not_divide(self, ring):
        if ring in ("Hb", "HT"):
            label = abstract_label if ring == "Hb" else realized_label
            top = label(1) * label(2)
            t = CohTuple(ring, {name: top if name == "1" else top - top for name in SIGMA3_NAMES})
            result, named = check_membership(t), "a multiple of the class-3 label"
        else:
            top = edge_divisor_poly(1) * edge_divisor_poly(2)
            if ring == "RT":
                top = expand_x_polynomial(top)
            entries = {name: top if name == "1" else top - top for name in SIGMA3_NAMES}
            if ring == "RT":
                result = check_k_membership_rt(entries)
                named = "divisible by the class-3 binomial product"
            else:
                result, named = check_k_membership_x(entries), "a multiple of X1-X3"
        (edge,) = [e for e in gkm_edges() if e.k == 3 and "1" in (e.u, e.v)]
        assert result.failing_edge == edge
        assert result.reason == f"difference along {{{edge.u},{edge.v}}} is not {named}"


class TestPredicateEquivalence:
    def test_agreement_on_arbitrary_tuples(self):
        rng = random.Random(1)
        for _ in range(25):
            t = random_arbitrary_tuple(rng)
            restricted, full, agree = p1_p2_equivalence(t)
            assert agree
            assert restricted == full

    def test_members_pass_both(self):
        for k in (1, 2, 3):
            restricted, full, agree = p1_p2_equivalence(restriction_class_tuple(k))
            assert restricted and full and agree


def ref_random_membership_tuple(rng, degree=2):
    """The builder as it was: every power and product formed per entry."""
    table = RestrictionTable()
    b1, b2 = B_RING.gens()
    entries = {name: B_RING.zero() for name in SIGMA3_NAMES}
    for _ in range(rng.randint(1, 4)):
        d1, d2 = rng.randint(0, degree), rng.randint(0, degree)
        scalar = Fraction(rng.randint(-3, 3))
        cdeg = rng.randint(0, 1)
        coeff = (b1 ** rng.randint(0, cdeg)) * (b2 ** rng.randint(0, cdeg))
        for name in SIGMA3_NAMES:
            sigma = sigma3_by_name(name)
            u = table.restriction(sigma, 1)
            v = table.restriction(sigma, 2)
            entries[name] = entries[name] + scalar * coeff * u**d1 * v**d2
    return entries


def ref_random_arbitrary_tuple(rng, degree=2):
    b1, b2 = B_RING.gens()
    entries = {}
    for name in SIGMA3_NAMES:
        p = B_RING.zero()
        for e1 in range(degree + 1):
            for e2 in range(degree + 1 - e1):
                p = p + Fraction(rng.randint(-2, 2)) * b1**e1 * b2**e2
        entries[name] = p
    return entries


class TestSeededTuples:
    """The builders draw from ``rng`` in the order they always did, so the
    seeded tuples of the suites stay the same tuples."""

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_builders_match_the_per_entry_references(self, degree):
        for seed in range(12):
            ours, ref = random.Random(seed), random.Random(seed)
            for _ in range(3):
                assert random_membership_tuple(ours, degree).entries == ref_random_membership_tuple(ref, degree)
                assert random_arbitrary_tuple(ours, degree).entries == ref_random_arbitrary_tuple(ref, degree)
            assert ours.random() == ref.random()


class TestFreeness:
    EXPECTED = {0: 1, 2: 0, 4: 1, 6: 0, 8: 5, 10: 0, 12: 6, 14: 0, 16: 15}

    def test_base_degrees(self):
        assert tuple(sorted(bm_degrees())) == (4, 8, 8, 12)

    def test_rank_table_to_degree_eight(self):
        rows = free_rank_check(8)
        assert [(d, c) for (d, c, _) in rows] == [
            (d, self.EXPECTED[d]) for d in range(0, 9, 2)
        ]
        assert all(c == p for (_, c, p) in rows)

    def test_rank_table_to_degree_sixteen(self):
        rows = free_rank_check(16)
        assert rows == [(d, c, c) for d, c in sorted(self.EXPECTED.items())]

    def test_twelve_distinct_label_hyperplanes(self):
        forms = [f for k in ROOT_TRANSPOSITIONS for f in label_hyperplanes(k)]
        assert len({f.monic() for f in forms}) == 12

    def test_restricted_generators_give_the_restricted_basis(self):
        # restriction is a ring map: the monomials in the restricted
        # invariants are the restrictions of the basis, in the same order
        invariants = _basic_invariants()
        for k in ROOT_TRANSPOSITIONS:
            for form in label_hyperplanes(k):
                images = _restriction_images(RHO_RING, form)
                gens = [g.substitute(images) for g in invariants]
                for d in range(0, 9, 2):
                    basis = _invariant_monomials(invariants, d // 2)
                    assert _invariant_monomials(gens, d // 2) == [
                        b.substitute(images) for b in basis
                    ]

    def test_predicted_ranks_match_frozen_values(self):
        for d, expected in self.EXPECTED.items():
            assert predicted_rank(d) == expected

    def test_odd_degrees_vanish(self):
        assert predicted_rank(3) == 0
        assert predicted_rank(7) == 0

    def test_abstract_labels(self):
        b1, b2 = B_RING.gens()
        assert abstract_label(1) == b1
        assert abstract_label(2) == b2
        assert abstract_label(3) == b1 + b2
        with pytest.raises(ValueError):
            abstract_label(4)

    def test_restriction_rows_differ_by_label_multiples(self):
        from flagoct.cohomology import restriction

        for e in gkm_edges():
            su, sv = sigma3_by_name(e.u), sigma3_by_name(e.v)
            for m in (1, 2, 3):
                diff = restriction(su, m) - restriction(sv, m)
                assert exact_divide(diff, abstract_label(e.k)) is not None
