"""Representation-ring characters, factorization identities, divisibility."""

import itertools
import random
from fractions import Fraction

import pytest

from flagoct import ktheory
from flagoct.gkm import check_membership, membership_ring
from flagoct.ktheory import (
    X_RING,
    Character,
    adjoint_character,
    binomial,
    binomial_divides,
    char_quotient,
    divides_char,
    edge_binomials,
    edge_divisor_char,
    edge_divisor_poly,
    equivalence_spotcheck,
    equivariant_tuple,
    expand_x_polynomial,
    factorization_rhs,
    is_w_invariant_character,
    random_x_polynomial,
    sigma_act_on_x,
    tautological_tuple,
    to_x_polynomial,
    verify_factorizations,
    weyl_act,
    x4_display_discrepancy,
    x_action_permutations,
    x_character,
    y,
    y_inverse,
)
from flagoct.weyl import (
    SIGMA3_NAMES,
    L,
    Weight,
    WeylElement,
    omega,
    sigma3_by_name,
    spin8_simple_roots,
    spin8_weyl,
)

X1, X2, X3, X4 = X_RING.gens()


class TestCharacterAlgebra:
    def test_unit_and_monomials(self):
        one = Character.one()
        assert one.dimension() == 1
        assert y(1) * y_inverse(1) == one

    def test_half_integer_relation_is_an_identity_of_weights(self):
        # the square of the half-sum generator IS the product of the four
        # integral generators; no rewriting is involved
        assert y(5) * y(5) == y(1) * y(2) * y(3) * y(4)

    def test_lattice_parity_enforced(self):
        # doubled coordinate keys must be all-even or all-odd
        with pytest.raises(ValueError):
            Character({(1, 1, 0, 0): 1})
        with pytest.raises(ValueError):
            Character.monomial(Weight.of(Fraction(1, 2), 0, 0, 0))

    def test_commutative_associative(self):
        rng = random.Random(0)

        def rand_char():
            c = Character.zero()
            for _ in range(3):
                c = c + Character.from_weights(
                    [(omega(5) if rng.random() < 0.5 else L(rng.randint(1, 4)))]
                ).scale(rng.randint(-2, 2))
            return c

        for _ in range(10):
            a, b, c = rand_char(), rand_char(), rand_char()
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_dimension_is_multiplicative_and_additive(self):
        a, b = x_character(1), x_character(3)
        assert (a + b).dimension() == a.dimension() + b.dimension()
        assert (a * b).dimension() == a.dimension() * b.dimension()

    def test_text_rendering_roundtrip_via_parser(self):
        from flagoct.parsing import CharacterContext, parse_and_evaluate

        ctx = CharacterContext()
        for f in (x_character(1), x_character(2), x_character(3), x_character(4)):
            assert parse_and_evaluate(str(f), ctx) == f


class TestFundamentalCharacters:
    def test_each_base_character_has_eight_weights(self):
        for i in (1, 2, 3):
            assert x_character(i).dimension() == 8
            assert x_character(i).support_size() == 8

    def test_x3_is_the_coordinate_character(self):
        expected = Character.zero()
        for i in range(1, 5):
            expected = expected + Character.from_weights([L(i), -L(i)])
        assert x_character(3) == expected

    def test_x1_x2_are_half_sum_characters(self):
        # all 16 sign patterns of (1/2,...,1/2) split by parity: even minus
        # count for the first, odd for the second
        for w, mult in x_character(1).weights():
            assert mult == 1
            minus = sum(1 for c in w.coords if c < 0)
            assert minus % 2 == 0
        for w, mult in x_character(2).weights():
            assert mult == 1
            minus = sum(1 for c in w.coords if c < 0)
            assert minus % 2 == 1

    def test_keys_match_the_former_sign_masks(self):
        # x_character reads its weights from the root systems of weyl; these
        # are the hand-built doubled keys it replaced
        signs = [tuple(-1 if mask & (1 << k) else 1 for k in range(4)) for mask in range(16)]

        def unit(k, value):
            key = [0, 0, 0, 0]
            key[k] = value
            return tuple(key)

        expected = {
            1: [k for k in signs if k.count(-1) % 2 == 0],
            2: [k for k in signs if k.count(-1) % 2 == 1],
            3: [unit(k, s) for s in (2, -2) for k in range(4)],
            4: [
                tuple(x + y for x, y in zip(unit(a, sa), unit(b, sb)))
                for a, b in itertools.combinations(range(4), 2)
                for sa in (2, -2)
                for sb in (2, -2)
            ],
        }
        for i, keys in expected.items():
            assert x_character(i).terms == dict.fromkeys(keys, 1)

    def test_x4_display_has_24_terms_and_no_zero_weight(self):
        x4 = x_character(4)
        assert x4.dimension() == 24
        assert x4.support_size() == 24
        assert all(not w.is_zero() for w, _ in x4.weights())

    def test_adjoint_adds_four_dimensional_zero_weight_space(self):
        adj = adjoint_character()
        assert adj - x_character(4) == Character.constant(4)
        assert x4_display_discrepancy() == 4
        assert adj.dimension() == 28


class TestWeylAction:
    def test_action_is_a_ring_map(self):
        rng = random.Random(1)
        roots = list(spin8_simple_roots())
        for _ in range(10):
            w = WeylElement.reflection(roots[rng.randrange(len(roots))])
            a = x_character(rng.randint(1, 4))
            b = x_character(rng.randint(1, 4))
            assert weyl_act(w, a * b) == weyl_act(w, a) * weyl_act(w, b)
            assert weyl_act(w, a + b) == weyl_act(w, a) + weyl_act(w, b)

    def test_base_characters_are_invariant_under_simple_reflections(self):
        for root in spin8_simple_roots():
            s = WeylElement.reflection(root)
            for i in (1, 2, 3, 4):
                assert weyl_act(s, x_character(i)) == x_character(i)

    def test_invariance_predicate(self):
        assert is_w_invariant_character(x_character(1))
        assert not is_w_invariant_character(y(1))

    def test_full_group_invariance(self):
        chars = [x_character(i) for i in (1, 2, 3, 4)]
        for w in spin8_weyl():
            for f in chars:
                assert weyl_act(w, f) == f


class TestFactorizations:
    def test_report(self):
        rep = verify_factorizations()
        assert rep.x1_minus_x2_ok
        assert rep.x1_minus_x3_ok
        assert rep.x3_minus_x2_ok
        assert rep.passed

    def test_falsified_rhs_fails_only_its_difference(self):
        rhs = factorization_rhs()
        rep = verify_factorizations({**rhs, "X1-X2": rhs["X1-X2"] * y(1)})
        assert not rep.x1_minus_x2_ok
        assert rep.x1_minus_x3_ok
        assert rep.x3_minus_x2_ok
        assert not rep.passed

    def test_first_difference_expands_to_binomial_product(self):
        rhs = Character.monomial(
            omega(5) - L(1) - L(2) - L(3) - L(4)
        )
        for i in range(1, 5):
            rhs = rhs * (y(i) - Character.one())
        assert x_character(1) - x_character(2) == rhs
        assert rhs == factorization_rhs()["X1-X2"]

    def test_second_difference(self):
        rhs = Character.monomial(-omega(5))
        for i in range(1, 5):
            rhs = rhs * (
                Character.monomial(omega(5) - L(i)) - Character.one()
            )
        assert x_character(1) - x_character(3) == rhs
        assert rhs == factorization_rhs()["X1-X3"]

    def test_third_difference(self):
        w5 = omega(5)
        rhs = Character.monomial(-L(3))
        rhs = rhs * (Character.monomial(w5) - Character.one())
        for pair in ((1, 4), (2, 4), (1, 2)):
            rhs = rhs * (
                Character.monomial(w5 - L(pair[0]) - L(pair[1]))
                - Character.one()
            )
        assert x_character(3) - x_character(2) == rhs
        assert rhs == factorization_rhs()["X3-X2"]


class TestDivisibility:
    def test_products_divide_and_quotients_recover(self):
        d = binomial(L(1))
        f = d * x_character(3)
        assert divides_char(d, f)
        q = char_quotient(d, f)
        assert q is not None
        assert q * d == f

    def test_non_divisible_examples(self):
        assert not divides_char(binomial(L(1)), x_character(3))
        assert char_quotient(binomial(L(1)), Character.one()) is None

    def test_zero_is_always_divisible(self):
        assert divides_char(binomial(L(2)), Character.zero())

    def test_binomial_projection_agrees_with_division(self):
        rng = random.Random(2)
        weights = [L(1), L(2) - L(3), omega(5), omega(5) - L(4)]
        for trial in range(20):
            w = weights[trial % len(weights)]
            h = Character.from_weights(
                [L(rng.randint(1, 4)), -L(rng.randint(1, 4))]
            )
            f = binomial(w) * h if trial % 2 == 0 else h + Character.constant(1)
            assert binomial_divides(w, f) == divides_char(binomial(w), f)

    def test_negated_weight_gives_same_divisibility(self):
        f = binomial(L(2)) * x_character(1)
        assert binomial_divides(L(2), f)
        assert binomial_divides(-L(2), f)

    def test_edge_divisors_expand_consistently(self):
        # the expanded difference X_i - X_j equals the binomial product for
        # its edge class up to an invertible monomial factor
        for k in (1, 2, 3):
            expansion = expand_x_polynomial(edge_divisor_poly(k))
            product = edge_divisor_char(k)
            assert divides_char(product, expansion)
            unit = char_quotient(product, expansion)
            assert unit is not None
            [(weight, coeff)] = unit.weights()
            assert coeff in (1, -1)
            assert unit * product == expansion


def seeded_character(rng, terms=3):
    """A sum of ``terms`` monomials in y1..y5 with small exponents and
    coefficients."""
    f = Character.zero()
    for _ in range(terms):
        m = Character.constant(rng.choice((-2, -1, 1, 3)))
        for j in range(1, 6):
            e = rng.randint(-2, 2)
            m = m * (y(j) ** e if e >= 0 else y_inverse(j) ** -e)
        f = f + m
    return f


class TestEarlyRefusal:
    """char_quotient refuses f/d before dividing where d has dimension 0 and
    f does not: the dimension, the sum of the coefficients, is a ring map."""

    def cases(self):
        rng = random.Random(24)
        divisors = [edge_divisor_char(k) for k in (1, 2, 3)]
        divisors += [binomial(L(1)), binomial(L(2) - L(3)), x_character(1)]
        for d in divisors:
            for _ in range(5):
                f = d * seeded_character(rng)
                i, j = rng.sample(range(1, 6), 2)
                yield d, f  # member
                yield d, f + seeded_character(rng, 1)  # near miss, dimension != 0 mostly
                yield d, f + y(i) - y(j)  # near miss of dimension 0

    def test_matches_the_full_division(self, monkeypatch):
        cases = list(self.cases())
        got = [char_quotient(d, f) for d, f in cases]
        kinds = {
            (q is not None, d.dimension() == 0, f.dimension() == 0)
            for (d, f), q in zip(cases, got)
        }
        # members, refusals before the division, and non-members of
        # dimension 0 that only the division refuses
        assert {(True, True, True), (False, True, False), (False, True, True)} <= kinds
        assert (True, False, False) in kinds
        # with every dimension read as 1 the early refusal never fires
        monkeypatch.setattr(Character, "dimension", lambda self: 1)
        assert [char_quotient(d, f) for d, f in cases] == got

    def test_a_difference_of_nonzero_dimension_reaches_no_division(self, monkeypatch):
        calls = []
        reduce_terms = ktheory.reduce_terms
        monkeypatch.setattr(ktheory, "reduce_terms", lambda *args: calls.append(args) or reduce_terms(*args))
        d = edge_divisor_char(1)
        assert char_quotient(d, d * x_character(1) + Character.one()) is None
        assert char_quotient(d, -(y(1) + y(5) ** 231)) is None
        assert calls == []
        assert char_quotient(d, d * x_character(1)) == x_character(1)
        assert len(calls) == 1


def per_key_shift(f):
    """The shift of ``ktheory._shifted_terms`` from each key's own unpacked
    fields: the per-coordinate minima, packed."""
    keys = [ktheory.CHAR_PACKING.unpack(k) for k in f.packed]
    shift = ktheory.CHAR_PACKING.pack([min(k[i] for k in keys) for i in range(4)])
    return {k - shift: c for k, c in f.packed.items()}, shift


class TestShiftedTerms:
    """The shift of a character division, read from all fields at once,
    against the minima of each key's unpacked fields."""

    def test_seeded_characters(self):
        rng = random.Random(25)
        for size in (1, 2, 3, 8, 40):
            for _ in range(20):
                f = seeded_character(rng, size)
                if f:
                    assert ktheory._shifted_terms(f) == per_key_shift(f)
        for f in (x_character(4) ** 2 * x_character(1), edge_divisor_char(1), -y_inverse(5)):
            assert ktheory._shifted_terms(f) == per_key_shift(f)

    @pytest.mark.parametrize("coordinate", range(4))
    def test_coordinates_at_both_ends_of_the_fields(self, coordinate):
        # the fields hold -bias .. limit - bias; _shifted_terms reads fields
        # only, so vectors off the lattice serve as well
        pack, bias, limit = ktheory.CHAR_PACKING.pack, ktheory.CHAR_PACKING.bias, ktheory.CHAR_PACKING.limit
        rng = random.Random(26 + coordinate)
        for ends in ((-bias,), (limit - bias,), (-bias, limit - bias)):
            vectors = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
            for v, end in zip(vectors, ends):
                v[coordinate] = end
            f = Character._of({pack(v): rng.choice((-2, 1, 5)) for v in vectors})
            shifted, shift = ktheory._shifted_terms(f)
            assert (shifted, shift) == per_key_shift(f)
            assert ktheory.CHAR_PACKING.unpack(shift)[coordinate] == min(v[coordinate] for v in vectors)


def seeded_binomial(rng):
    """e^w - 1 for a seeded nonzero lattice weight w."""
    while True:
        odd = rng.randint(0, 1)
        key = [2 * rng.randint(-2, 2) + odd for _ in range(4)]
        if any(key):
            return binomial(Weight.from_doubled_key(key))


class TestQuotientKeys:
    """f/d for lattice characters d and f = d * q is q, on lattice keys,
    also where the shifts of f and d differ by a vector off the lattice."""

    def test_quotients_of_products_are_the_lattice_factors(self):
        rng = random.Random(27)

        def minima(c):
            return ktheory.CHAR_PACKING.unpack(ktheory._shifted_terms(c)[1])

        divisors = [edge_divisor_char(k) for k in (1, 2, 3)]
        divisors += [seeded_binomial(rng) for _ in range(6)]
        mixed = 0
        for d in divisors:
            for size in (1, 2, 3, 5):
                q = seeded_character(rng, size)
                if rng.randint(0, 1):
                    # a y1 and a y5 term: the per-coordinate minima of q's
                    # keys then mix odd and even coordinates
                    q = q + y(1) - y(5)
                if not q:
                    continue
                f = d * q
                # the packed shift of the quotient, sf - sd, off the lattice
                mixed += len({(a - b) % 2 for a, b in zip(minima(f), minima(d))}) == 2
                got = char_quotient(d, f)
                assert got == q
                for key in got.terms:
                    assert ktheory._validate_dkey(key) == key
        assert mixed >= 10


class TestEdgeBinomials:
    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_weights_are_pairwise_non_proportional(self, k):
        # e^v - 1 and e^w - 1 are coprime exactly when v and w are not
        # proportional, so the four binomials of a class are pairwise coprime
        weights = []
        for b in edge_binomials(k):
            assert b.terms[(0, 0, 0, 0)] == -1
            [w] = [key for key in b.terms if any(key)]
            weights.append(w)
        assert len(weights) == 4
        for v, w in itertools.combinations(weights, 2):
            assert any(v[i] * w[j] != v[j] * w[i] for i, j in itertools.combinations(range(4), 2)), (v, w)


class TestXPolynomialBridge:
    def test_expand_of_generators(self):
        for i, g in enumerate(X_RING.gens(), start=1):
            assert expand_x_polynomial(g) == x_character(i)

    def test_roundtrip_on_monomials(self):
        import itertools

        for exps in itertools.product(range(3), repeat=4):
            if sum(exps) > 3:
                continue
            p = X_RING.monomial(exps)
            f = expand_x_polynomial(p)
            assert to_x_polynomial(f) == p

    def test_roundtrip_on_random_polynomials(self):
        rng = random.Random(3)
        for _ in range(10):
            p = random_x_polynomial(rng)
            assert to_x_polynomial(expand_x_polynomial(p)) == p

    def test_non_invariant_character_has_no_x_form(self):
        assert to_x_polynomial(y(1)) is None

    def test_invariant_but_expressible_check_is_exact(self):
        # a genuine X-polynomial plus a constant stays expressible
        f = expand_x_polynomial(X1 * X3) + Character.constant(2)
        assert to_x_polynomial(f) == X1 * X3 + 2


class TestTuples:
    def test_tautological_tuple_is_a_member(self):
        t = tautological_tuple()
        assert membership_ring(t) == "RX"
        assert check_membership(t).ok
        chars = {name: expand_x_polynomial(p) for name, p in t.items()}
        assert check_membership(chars).ok

    def test_tautological_entries_follow_first_index(self):
        t = tautological_tuple()
        for name in SIGMA3_NAMES:
            sigma = sigma3_by_name(name)
            assert t[name] == X_RING.gens()[sigma(1) - 1]

    def test_equivariant_tuples_are_members(self):
        rng = random.Random(4)
        for _ in range(5):
            p = random_x_polynomial(rng)
            t = equivariant_tuple(p)
            assert check_membership(t).ok

    def test_lone_x4_entry_fails(self):
        entries = {name: X_RING.zero() for name in SIGMA3_NAMES}
        entries["1"] = X4
        result = check_membership(entries)
        assert not result.ok
        assert result.failing_edge is not None

    def test_rt_and_x_checks_agree_on_seeded_tuples(self):
        rep = equivalence_spotcheck(10, seed=5)
        assert rep.passed
        assert rep.forward_agreements == rep.trials
        assert rep.negative_agreements == rep.trials


class TestInducedPermutations:
    def test_computed_correspondence(self):
        perms = x_action_permutations()
        assert set(perms) == {"omega4", "omega5_minus_omega4", "omega5"}
        # the reflection in each base character's highest weight fixes that
        # character and swaps the other two
        assert perms["omega4"].name == "s2"  # swaps X1, X2
        assert perms["omega5_minus_omega4"].name == "s1s2s1"  # swaps X1, X3
        assert perms["omega5"].name == "s1"  # swaps X2, X3
        assert {p.name for p in perms.values()} == {"s1", "s2", "s1s2s1"}

    def test_sigma_act_on_x(self):
        s2 = sigma3_by_name("s2")
        assert sigma_act_on_x(s2, X1) == X2
        assert sigma_act_on_x(s2, X2) == X1
        assert sigma_act_on_x(s2, X3) == X3
        assert sigma_act_on_x(s2, X4) == X4
        w0 = sigma3_by_name("s1s2s1")
        assert sigma_act_on_x(w0, X1 * X2 + X3) == X3 * X2 + X1
