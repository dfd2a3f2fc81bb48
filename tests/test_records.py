"""The package's record types: validation, coercion, frozen fields, equality.

The records are named tuples or ``__slots__`` classes; these tests pin the
behaviour their callers rely on: constructor keywords and defaults, the
errors a bad field raises, that no field can be reassigned, and which fields
equality and hashing read.
"""

import inspect
import re
from fractions import Fraction

import pytest

from flagoct.cohomology import EquivariantRelationsReport, FracIdentityReport, PresentationReport
from flagoct.gkm import EulerRealization, GkmEdge, MembershipResult
from flagoct.groebner import GroebnerBasis
from flagoct.ktheory import EquivalenceReport, FactorizationReport
from flagoct.poly import FormProduct, PolyRing, RingMismatchError
from flagoct.report import Check, VerificationReport
from flagoct.weyl import SemidirectReport, Sigma3Element

R2 = PolyRing.make(("x", "y"))
R3 = PolyRing.make(("x", "y", "z"))
X, Y = R2.gens()

PLAIN_RECORDS = [
    PresentationReport,
    FracIdentityReport,
    EquivariantRelationsReport,
    GkmEdge,
    MembershipResult,
    EulerRealization,
    GroebnerBasis,
    FactorizationReport,
    EquivalenceReport,
    SemidirectReport,
]


def field_names(cls):
    """The constructor's parameters, which are the record's fields."""
    return tuple(inspect.signature(cls).parameters)


def plain_record(cls):
    return cls(*(f"{name}-value" for name in field_names(cls)))


def frozen_records():
    yield from (plain_record(cls) for cls in PLAIN_RECORDS)
    yield R2
    yield FormProduct(2, (X, Y))
    yield Check("id", "description", "pass")
    yield Sigma3Element((2, 3, 1))


def fields_of(record):
    return field_names(type(record)) + (("packing",) if isinstance(record, PolyRing) else ())


class TestValidation:
    @pytest.mark.parametrize(
        "names, degrees, message",
        [
            (("a", "b"), (1,), "names and degrees must have equal length"),
            (("a", "a"), (1, 1), "duplicate variable names"),
            (("a", "b"), (1, 0), "grading degrees must be positive"),
        ],
    )
    def test_poly_ring(self, names, degrees, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            PolyRing(names, degrees)

    def test_check_status(self):
        message = "status must be one of ('pass', 'fail', 'skipped')"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Check("a", "desc", "maybe")
        with pytest.raises(ValueError, match=re.escape(message)):
            Check(id="a", description="desc", status="passed", details="d", anchor="x")

    @pytest.mark.parametrize("perm", [(1, 2, 2), (0, 1, 2), (1, 2, 3, 4)])
    def test_sigma3_element(self, perm):
        with pytest.raises(ValueError, match=f"^{re.escape(f'not a permutation of 1..3: {perm}')}$"):
            Sigma3Element(perm)

    def test_sigma3_element_refuses_float_entries(self):
        with pytest.raises(TypeError):
            Sigma3Element((1.0, 2.0, 3.0))

    def test_form_product_mixed_rings(self):
        with pytest.raises(RingMismatchError, match="^factors live in different rings$"):
            FormProduct(Fraction(1), (R2.gens()[0], R3.gens()[0]))

    @pytest.mark.parametrize(
        "record, field, bad, error",
        [
            (Check("a", "desc", "pass"), "status", "maybe", ValueError),
            (Sigma3Element((2, 1, 3)), "perm", (1, 1, 3), ValueError),
            (FormProduct(1, (X,)), "forms", (X, R3.gens()[0]), RingMismatchError),
        ],
        ids=["Check", "Sigma3Element", "FormProduct"],
    )
    def test_make_and_replace_validate_like_the_constructor(self, record, field, bad, error):
        values = [bad if name == field else getattr(record, name) for name in field_names(type(record))]
        with pytest.raises(error) as from_constructor:
            type(record)(*values)
        with pytest.raises(error, match=f"^{re.escape(str(from_constructor.value))}$"):
            type(record)._make(values)
        with pytest.raises(error, match=f"^{re.escape(str(from_constructor.value))}$"):
            record._replace(**{field: bad})


class TestConstruction:
    def test_sigma3_element_keeps_a_tuple_of_ints(self):
        element = Sigma3Element([1, 3, 2])
        assert type(element.perm) is tuple and element.perm == (1, 3, 2)
        assert element.name == "s1"
        assert element == Sigma3Element((1, 3, 2)) and hash(element) == hash(Sigma3Element((1, 3, 2)))

    def test_form_product_coerces_its_scalar(self):
        for scalar in (3, Fraction(6, 2)):
            fp = FormProduct(scalar, (X,))
            assert type(fp.scalar) is Fraction and fp.scalar == 3
        assert FormProduct(scalar=-1, forms=(X, Y)) == FormProduct(Fraction(-1), (X, Y))

    def test_keywords_and_defaults(self):
        check = Check(id="a", description="d", status="fail")
        assert (check.details, check.anchor) == ("", "")
        assert Sigma3Element(perm=(1, 3, 2)).name == "s1"
        assert PolyRing(names=("a",), degrees=(2,)).degrees == (2,)
        assert MembershipResult(ok=True, failing_edge=None).reason == ""
        report = VerificationReport(suite="s", seed=1, degree_cutoff=8)
        assert (report.checks, report.runtime_ms) == ([], None)

    def test_membership_truthiness_follows_ok(self):
        edge = GkmEdge("1", "s1", 1)
        assert not MembershipResult(False, edge, "no")
        assert not MembershipResult(ok=False, failing_edge=None)
        assert MembershipResult(True, None)

    def test_reports_never_share_a_checks_list(self):
        a, b = VerificationReport("a", 0, 8), VerificationReport("b", 0, 8)
        a.add(Check("x", "one", "pass"))
        assert a.checks is not b.checks and b.checks == []
        assert VerificationReport("c", 0, 8).checks == []


class TestFrozen:
    @pytest.mark.parametrize("record", list(frozen_records()), ids=lambda r: type(r).__name__)
    def test_no_field_can_be_assigned(self, record):
        for name in fields_of(record):
            before = getattr(record, name)
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            assert getattr(record, name) is before
        with pytest.raises(AttributeError):
            record.extra = 1


class TestEquality:
    def test_poly_ring_equality_and_hash_ignore_packing(self):
        a, b = PolyRing(("x", "y"), (1, 2)), PolyRing(("x", "y"), (1, 2))
        assert a.packing is not b.packing
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != PolyRing(("x", "y"), (1, 1)) and a != PolyRing(("y", "x"), (1, 2))
        assert a != ("x", "y") and a != (("x", "y"), (1, 2))

    @pytest.mark.parametrize("record", list(frozen_records()), ids=lambda r: type(r).__name__)
    def test_equal_fields_give_equal_records(self, record):
        twin = type(record)(**{name: getattr(record, name) for name in field_names(type(record))})
        assert twin is not record and twin == record and hash(twin) == hash(record)

    def test_a_different_field_gives_a_different_record(self):
        assert Check("a", "d", "pass") != Check("a", "d", "fail")
        assert Check("a", "d", "pass", anchor="x") != Check("a", "d", "pass")
        assert Sigma3Element((1, 3, 2)) != Sigma3Element((2, 1, 3))
        assert FormProduct(1, (X,)) != FormProduct(2, (X,))
        assert GkmEdge("1", "s1", 1) != GkmEdge("1", "s1", 2)

    def test_verification_reports_compare_by_fields_and_are_unhashable(self):
        a, b = VerificationReport("s", 0, 8), VerificationReport("s", 0, 8)
        assert a == b
        a.add(Check("x", "one", "pass"))
        assert a != b
        b.add(Check("x", "one", "pass"))
        b.runtime_ms = 5
        assert a != b
        with pytest.raises(TypeError):
            hash(a)
