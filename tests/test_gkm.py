"""Moment-graph membership tests for the six-fixed-point torus action."""

import random
from fractions import Fraction

import pytest

from flagoct import gkm
from flagoct.cohomology import B_RING, LAMBDA_RING, RestrictionTable
from flagoct.gkm import (
    RHO_RING,
    abstract_label,
    cached_realization,
    check_membership,
    displayed_euler_products,
    free_rank_check,
    gkm_edges,
    is_w_invariant,
    label_hyperplanes,
    membership_ring,
    p1_p2_equivalence,
    predicted_rank,
    random_arbitrary_tuple,
    random_membership_tuple,
    realized_label,
    restriction_class_tuple,
    _basic_invariants,
    _integral_rows,
    _invariant_monomials,
    _restriction_images,
)
from flagoct.ktheory import (
    X_RING,
    Character,
    edge_binomials,
    edge_divisor_poly,
    expand_x_polynomial,
    x_action_permutations,
    x_character,
)
from flagoct.poly import Polynomial, RingMismatchError, exact_divide, pairwise_coprime
from flagoct.weyl import (
    ROOT_TRANSPOSITIONS,
    SIGMA3_NAMES,
    coset_partition_of_f4_positives,
    sigma3_by_name,
    Weight,
    sigma3_identification,
    transposition,
)


def weights_of(c):
    """(weight, multiplicity) of the character ``c``, in lexicographic order
    of the keys, as ``expand`` lists them."""
    return [(Weight.of(*(Fraction(k, 2) for k in key)), m) for key, m in sorted(c.terms.items())]


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
        result = check_membership({**t, "s1": t["s1"] + B_RING.one()})
        assert not result.ok
        assert result.failing_edge is not None
        assert "s1" in (result.failing_edge.u, result.failing_edge.v)

    def test_constant_tuples_are_members(self):
        entries = {name: 5 * B_RING.one() for name in SIGMA3_NAMES}
        assert check_membership(entries).ok

    def test_realized_mode_rejects_non_invariant_entries(self):
        rho1 = RHO_RING.gens()[0]
        entries = {name: rho1 for name in SIGMA3_NAMES}
        result = check_membership(entries)
        assert not result.ok
        assert "invariant" in result.reason


def invariant_entries():
    """Six W-invariant HT entries of degrees 12, 0, 4, 8, 8 and 4."""
    c1, c2, c3 = (realized_label(k) for k in (1, 2, 3))
    return dict(zip(SIGMA3_NAMES, [c1**3, 7 * RHO_RING.one(), c2, c1 * c3, c3**2 - c1 * c2, c2 - c1]))


def moved_only_by(j):
    """An entry of degree 5 that the j-th generator substitution changes and
    the others fix: rho_(j+1) moves under that reflection alone."""
    return realized_label(2) * RHO_RING.gens()[j] + realized_label(1)


def unshared_outcome(entries):
    """The result of the HT pre-check, entry by entry in vertex order: the
    first vertex whose entry one of the four generator substitutions
    changes, or None."""
    for name in SIGMA3_NAMES:
        p = entries[name]
        if any(p.substitute(s) != p for s in gkm.generator_substitutions()):
            return (False, None, f"entry at vertex {name!r} is not W-invariant")
    return None


class TestReflectionsInVertexOrder:
    """The HT check applies the four generator substitutions to the six
    entries in vertex order: the first vertex reported is the first whose
    entry one of them changes, and an invariant tuple makes one substitution
    per entry and generator."""

    @pytest.mark.parametrize("vertex", range(6))
    def test_a_non_invariant_entry_is_reported_at_its_vertex(self, vertex):
        name = SIGMA3_NAMES[vertex]
        for j in range(4):
            entries = {**invariant_entries(), name: moved_only_by(j)}
            result = check_membership(entries)
            expected = (False, None, f"entry at vertex {name!r} is not W-invariant")
            assert (result.ok, result.failing_edge, result.reason) == expected == unshared_outcome(entries)

    @pytest.mark.parametrize("first, second", [(0, 1), (0, 5), (2, 4), (4, 5)])
    def test_the_first_of_two_entries_failing_under_other_reflections_is_reported(self, first, second):
        for j, k in ((0, 3), (3, 0), (1, 2), (2, 1)):
            entries = {**invariant_entries(), SIGMA3_NAMES[first]: moved_only_by(j), SIGMA3_NAMES[second]: moved_only_by(k)}
            result = check_membership(entries)
            expected = (False, None, f"entry at vertex {SIGMA3_NAMES[first]!r} is not W-invariant")
            assert (result.ok, result.failing_edge, result.reason) == expected == unshared_outcome(entries)

    def test_an_invariant_tuple_makes_24_substitutions(self, monkeypatch):
        calls = []
        substitute = Polynomial.substitute

        def counting(self, images):
            calls.append(self)
            return substitute(self, images)

        member = realized_tuple(random_membership_tuple(random.Random(5), 2))
        monkeypatch.setattr(Polynomial, "substitute", counting)
        assert check_membership(member).ok
        # one per (entry, generator), the entries in vertex order
        assert calls == [member[name] for name in SIGMA3_NAMES for _ in range(4)]
        calls.clear()
        assert check_membership(invariant_entries()).reason.startswith("difference along")
        assert len(calls) == 24


def constant_tuple(value):
    return {name: value for name in SIGMA3_NAMES}


class TestEntryValidation:
    """``check_membership`` reads the ring from the entries and refuses a
    tuple that has none."""

    @pytest.mark.parametrize(
        "value, ring",
        [(B_RING.one(), "Hb"), (RHO_RING.one(), "HT"), (Character.one(), "RT"), (X_RING.one(), "RX")],
    )
    def test_the_ring_is_read_from_the_entries(self, value, ring):
        assert membership_ring(constant_tuple(value)) == ring
        assert check_membership(constant_tuple(value)).ok

    def test_entries_in_two_rings_are_refused(self):
        entries = {**constant_tuple(B_RING.one()), "s2": RHO_RING.one()}
        with pytest.raises(RingMismatchError, match="entry 's2' lives in"):
            check_membership(entries)

    def test_a_missing_vertex_is_refused(self):
        entries = constant_tuple(B_RING.one())
        del entries["s2s1"]
        with pytest.raises(ValueError, match=r"missing vertex entries: \['s2s1'\]"):
            check_membership(entries)

    def test_a_non_integral_rx_entry_is_refused(self):
        x1 = X_RING.var("X1")
        entries = {**constant_tuple(x1), "s1": x1 / 2}
        with pytest.raises(ValueError, match="entry 's1' must have integer coefficients"):
            check_membership(entries)

    def test_a_ring_that_is_not_a_gkm_ring_is_refused(self):
        with pytest.raises(ValueError, match="not a GKM ring"):
            check_membership(constant_tuple(LAMBDA_RING.one()))

    def test_characters_among_polynomials_are_refused(self):
        entries = {**constant_tuple(X_RING.one()), "1": Character.one()}
        with pytest.raises(TypeError, match=r"offending: \['1'\]"):
            check_membership(entries)

    def test_a_polynomial_among_characters_is_refused(self):
        entries = {**constant_tuple(Character.one()), "s1s2s1": X_RING.one()}
        with pytest.raises(
            TypeError, match=r"offending: \['1', 's1', 's2', 's1s2', 's2s1'\]"
        ):
            check_membership(entries)


def vanishes_on_hyperplanes(p, forms):
    """True iff p restricts to zero on the kernel of every given form."""
    return all(p.substitute(_restriction_images(p.ring, form)).is_zero() for form in forms)


def hyperplane_membership(t):
    """The hyperplane formulation of HT membership, kept as a reference:
    invariant entries whose difference along every edge vanishes on the four
    hyperplanes of the edge's label.  It equals the division test since each
    label is a product of four pairwise non-proportional linear forms.
    Returns the verdict and the first failing edge, in ``gkm_edges`` order."""
    if not all(is_w_invariant(p) for p in t.values()):
        return False, None
    for e in gkm_edges():
        if not vanishes_on_hyperplanes(t[e.u] - t[e.v], label_hyperplanes(e.k)):
            return False, e
    return True, None


def realized_tuple(entries):
    """Hb entries mapped into HT by b1 -> b1T and b2 -> b2T (so b3 -> b3T)."""
    images = {"b1": realized_label(1), "b2": realized_label(2)}
    return {name: p.substitute(images) for name, p in entries.items()}


class TestHyperplaneFormulation:
    def test_division_agrees_with_the_hyperplane_reference(self):
        rng = random.Random(13)
        b1 = B_RING.gens()[0]
        verdicts = set()
        for build in (random_membership_tuple, random_arbitrary_tuple):
            for i in range(4):
                entries = build(rng, 1)
                # a member broken at one vertex by b1: its class-1 edges
                # still divide, so it fails at a later edge
                broken = {**entries, SIGMA3_NAMES[i]: entries[SIGMA3_NAMES[i]] + b1}
                for t in map(realized_tuple, (entries, broken)):
                    result = check_membership(t)
                    assert (result.ok, result.failing_edge) == hyperplane_membership(t)
                    verdicts.add(result.ok)
        assert verdicts == {True, False}


class TestOneEdgeLoop:
    """``check_membership`` runs one edge loop for the four rings, which
    differ only in the divisor.  A tuple that is zero but at vertex 1, where
    it is the product of the class-1 and class-2 divisors, fails at the
    class-3 edge at vertex 1."""

    NAMED = {
        "Hb": "a multiple of the class-3 label",
        "HT": "a multiple of the class-3 label",
        "RT": "divisible by the class-3 binomial product",
        "RX": "a multiple of X1-X3",
    }

    @pytest.mark.parametrize("ring", ["Hb", "HT", "RT", "RX"])
    def test_fails_at_the_one_edge_whose_label_does_not_divide(self, ring):
        if ring in ("Hb", "HT"):
            label = abstract_label if ring == "Hb" else realized_label
            top = label(1) * label(2)
        else:
            top = edge_divisor_poly(1) * edge_divisor_poly(2)
            if ring == "RT":
                top = expand_x_polynomial(top)
        entries = {name: top if name == "1" else top - top for name in SIGMA3_NAMES}
        assert membership_ring(entries) == ring
        result = check_membership(entries)
        (edge,) = [e for e in gkm_edges() if e.k == 3 and "1" in (e.u, e.v)]
        assert result.failing_edge == edge
        assert result.reason == f"difference along {{{edge.u},{edge.v}}} is not {self.NAMED[ring]}"


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
                assert random_membership_tuple(ours, degree) == ref_random_membership_tuple(ref, degree)
                assert random_arbitrary_tuple(ours, degree) == ref_random_arbitrary_tuple(ref, degree)
            assert ours.random() == ref.random()


def bareiss_rank(rows):
    """Rank over Q by fraction-free Gaussian elimination (Bareiss): every
    division by the previous pivot is exact, and rows that vanish are
    dropped.  Independent of the package's elimination."""
    m = [list(r) for r in rows if any(r)]
    rank, prev = 0, 1
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank]
        c = p[col]
        below = []
        for r in m[rank + 1 :]:
            a = r[col]
            new = []
            for x, y in zip(r, p):
                q, rem = divmod(x * c - a * y, prev)
                assert not rem
                new.append(q)
            if any(new):
                below.append(new)
        m[rank + 1 :] = below
        prev = c
        rank += 1
    return rank


def reference_rank_table(degree_cutoff):
    """The free-rank table from the full constraint matrix: every distinct
    row of each class's four hyperplanes, repeated over the class's three
    edges, ranked by :func:`bareiss_rank`."""
    invariants = _basic_invariants()
    restricted = [
        (k, [g.substitute(_restriction_images(RHO_RING, form)) for g in invariants])
        for k in ROOT_TRANSPOSITIONS
        for form in label_hyperplanes(k)
    ]
    index = {name: i for i, name in enumerate(SIGMA3_NAMES)}
    table = []
    for d in range(0, degree_cutoff + 1, 2):
        blocks = {k: {} for k in ROOT_TRANSPOSITIONS}
        for k, gens in restricted:
            basis = _invariant_monomials(gens, d // 2)
            nb = len(basis)
            blocks[k].update(dict.fromkeys(map(tuple, _integral_rows(basis))))
        constraints = []
        for edge in gkm_edges():
            iu, iv = index[edge.u], index[edge.v]
            for block in blocks[edge.k]:
                row = [0] * (6 * nb)
                row[iu * nb : (iu + 1) * nb] = block
                row[iv * nb : (iv + 1) * nb] = [-c for c in block]
                constraints.append(row)
        table.append((d, 6 * nb - bareiss_rank(constraints), predicted_rank(d)))
    return table


class TestFreeness:
    EXPECTED = {
        0: 1, 2: 0, 4: 1, 6: 0, 8: 5, 10: 0, 12: 6,
        14: 0, 16: 15, 18: 0, 20: 19, 22: 0, 24: 35,
    }

    def test_base_degrees(self):
        assert tuple(sorted(2 * d for d in gkm._INVARIANT_DEGREES)) == (4, 8, 8, 12)

    def test_rank_table_to_degree_eight(self):
        rows = free_rank_check(8)
        assert [(d, c) for (d, c, _) in rows] == [
            (d, self.EXPECTED[d]) for d in range(0, 9, 2)
        ]
        assert all(c == p for (_, c, p) in rows)

    def test_rank_table_to_degree_sixteen(self):
        rows = free_rank_check(16)
        assert rows == [(d, c, c) for d, c in sorted(self.EXPECTED.items()) if d <= 16]

    def test_rank_table_to_degree_twenty_four(self):
        rows = free_rank_check(24)
        assert rows == [(d, c, c) for d, c in sorted(self.EXPECTED.items())]

    def test_table_matches_the_full_constraint_matrix(self):
        # the per-class echelon blocks span the rows of the full matrix, so
        # every degree through 24 has the same rank
        assert free_rank_check(24) == reference_rank_table(24)

    def test_nine_distinct_restricted_hyperplanes(self):
        invariants = _basic_invariants()
        restricted = {
            (k, tuple(g.substitute(_restriction_images(RHO_RING, form)) for g in invariants))
            for k in ROOT_TRANSPOSITIONS
            for form in label_hyperplanes(k)
        }
        assert len(restricted) == 9

    def test_restricted_invariants_are_integral(self):
        # _integral_rows takes the restricted basis's numerators as its rows:
        # each label form leads with +-1, so restricting the integral basic
        # invariants to its hyperplane keeps them integral
        invariants = _basic_invariants()
        for k in ROOT_TRANSPOSITIONS:
            for form in label_hyperplanes(k):
                images = _restriction_images(RHO_RING, form)
                assert all(g.substitute(images).den == 1 for g in invariants)

    def test_one_rank_per_nonempty_degree(self, monkeypatch):
        # the assembled matrix is ranked once per degree with unknowns, by
        # the matrix_rank that gkm imports; the class blocks are reduced
        # by echelon_basis
        calls = []
        rank = gkm.matrix_rank
        monkeypatch.setattr(gkm, "matrix_rank", lambda rows: calls.append(len(rows)) or rank(rows))
        free_rank_check(16)
        assert calls == [9, 9, 18, 27, 36]

    @pytest.mark.parametrize("k", ROOT_TRANSPOSITIONS)
    @pytest.mark.parametrize("nb", [3, 7])
    def test_one_changed_block_entry_changes_the_table(self, monkeypatch, k, nb):
        # change the first entry of class k's block at the degree with nb
        # unknowns per vertex (8 or 16): the class's row space grows and the
        # table must show it
        echelon_basis, seen = gkm.echelon_basis, []

        def mutated(rows):
            if len(rows[0]) == nb:
                seen.append(1)
                if len(seen) == list(ROOT_TRANSPOSITIONS).index(k) + 1:
                    rows = [list(r) for r in rows]
                    rows[0][0] += 1
            return echelon_basis(rows)

        clean = free_rank_check(16)
        monkeypatch.setattr(gkm, "echelon_basis", mutated)
        changed = free_rank_check(16)
        assert len(seen) == 3
        assert changed != clean

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
        restriction = RestrictionTable().restriction
        for e in gkm_edges():
            su, sv = sigma3_by_name(e.u), sigma3_by_name(e.v)
            for m in (1, 2, 3):
                diff = restriction(su, m) - restriction(sv, m)
                assert exact_divide(diff, abstract_label(e.k)) is not None


class TestThreeIdentificationsOfTheQuotient:
    """W(F4)/W(Spin 8) is identified with the symmetric group in three ways
    that do not agree; these tests pin each as it stands.  Edge class k is
    the transposition ROOT_TRANSPOSITIONS[k]: s1 for k = 1, s2 for 2 and
    s1s2s1 for 3.  The fixed dictionary and the computed action on X1..X3
    agree only on omega4 -> s2, and the HT edge labels follow a third map,
    so a vertex name does not denote the same fixed point in Hb and HT as in
    RT and RX.
    """

    CLASSES = ("omega4", "omega5_minus_omega4", "omega5")

    @staticmethod
    def up_to_sign(polys):
        return {frozenset((p, -p)) for p in polys}

    def test_fixed_dictionary(self):
        names = {k: s.name for k, s in sigma3_identification().items()}
        assert names == {"omega4": "s2", "omega5_minus_omega4": "s1", "omega5": "s1s2s1"}

    def test_computed_action_on_the_basic_characters(self):
        names = {k: s.name for k, s in x_action_permutations().items()}
        assert names == {"omega4": "s2", "omega5_minus_omega4": "s1s2s1", "omega5": "s1"}

    def test_ht_label_forms_follow_a_third_map(self):
        part = coset_partition_of_f4_positives()
        forms = {
            c: self.up_to_sign(gkm._linear(w.rho_coordinates()) for w in part[c])
            for c in self.CLASSES
        }
        matched = {
            k: [c for c in self.CLASSES if forms[c] == self.up_to_sign(label_hyperplanes(k))]
            for k in (1, 2, 3)
        }
        assert matched == {1: ["omega4"], 2: ["omega5"], 3: ["omega5_minus_omega4"]}

    def test_edge_binomials_follow_the_computed_map(self):
        part = coset_partition_of_f4_positives()

        def keys(weights):
            return {frozenset((w.doubled_key(), (-w).doubled_key())) for w in weights}

        matched = {}
        for k in (1, 2, 3):
            # each binomial e^w - 1 has the one nonzero weight w
            weights = [w for b in edge_binomials(k) for w, _ in weights_of(b) if not w.is_zero()]
            matched[k] = [c for c in self.CLASSES if keys(part[c]) == keys(weights)]
        assert matched == {1: ["omega5"], 2: ["omega4"], 3: ["omega5_minus_omega4"]}

    def chern_character_4(self, i):
        """The sum of lambda^4 over the weights of X_i, as a form of RHO_RING."""
        return sum(
            (gkm._linear(w.rho_coordinates()) ** 4 * m for w, m in weights_of(x_character(i))),
            RHO_RING.zero(),
        )

    def test_degree_four_term_of_the_tautological_tuple(self):
        # sigma -> X_sigma(1) is an RX member; its degree-4 Chern character
        # term is an HT tuple that fails on a class-1 edge, and passes once
        # each entry is read at s1s2s1 . sigma
        taut = {n: self.chern_character_4(sigma3_by_name(n)(1)) for n in SIGMA3_NAMES}
        result = check_membership(taut)
        assert not result.ok
        assert (result.failing_edge.u, result.failing_edge.v) == ("s2", "s1s2")
        assert result.failing_edge.k == 1
        w0 = sigma3_by_name("s1s2s1")
        moved = {
            n: self.chern_character_4(w0.compose(sigma3_by_name(n))(1)) for n in SIGMA3_NAMES
        }
        assert check_membership(moved).ok
