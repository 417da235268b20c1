"""The immutable-record base: construction, equality, hashing, repr and
immutability of every record type in the package."""

from fractions import Fraction

import pytest
from helpers import ClassConvergenceRow, ClassConvergenceTable

import toricfsig  # noqa: F401  (imports every record type)
from toricfsig.divisors import ClassElement, ClassGroupData, WeilDivisor, class_group
from toricfsig.frobenius import FrobeniusContext, FrobeniusDecomposition
from toricfsig.fsignature import ExactFSignature, WitnessRow
from toricfsig.linalg import IntMat, SmithDecomposition
from toricfsig.record import Record
from toricfsig.rings import FacetFunctional, Lattice, RingSpec, parse_builtin
from toricfsig.verify import (
    CorpusError,
    CorpusReport,
    TheoremVerdict,
)

M = IntMat(2, 2, (1, 0, 0, 1))
SPEC = parse_builtin("an:3")
CTX = FrobeniusContext(2, 1)


class Labelled(Record):
    """A record type defined outside the package."""

    name: str
    label: str | None


# every record type of the package and of the test helpers, and Labelled,
# with its fields, in order, and one valid value each
FIELDS = {
    IntMat: {"rows": 2, "cols": 2, "entries": (1, 2, 3, 4)},
    SmithDecomposition: {"U": M, "S": M, "V": M},
    Lattice: {"basis": M},
    FacetFunctional: {"covector": (Fraction(1), Fraction(0))},
    RingSpec: {"name": "r", "lattice": Lattice(M), "facets": (FacetFunctional((1, 0)),)},
    WeilDivisor: {"coeffs": (1, -2)},
    ClassElement: {"free": (1,), "torsion": (2,)},
    ClassGroupData: {"free_rank": 0, "invariant_factors": (3,), "projection": M},
    FrobeniusContext: {"p": 3, "e": 2},
    FrobeniusDecomposition: {"spec": SPEC, "ctx": CTX, "base_divisor": WeilDivisor((0, 0)),
                             "summands": {}},
    ExactFSignature: {"value": Fraction(1, 3), "method": "singh_formula"},
    WitnessRow: {"e": 1, "q": 2, "a_e": 2, "s_e": Fraction(1, 2), "n_e": 4, "rank": 4},
    TheoremVerdict: {"ring": "r", "p": 2, "torsion_cardinality": 3,
                     "exact_signature": Fraction(1, 3), "inequality_holds": True,
                     "equality": True, "witnesses": (), "ring_def": {}},
    ClassConvergenceRow: {"torsion_coords": (1,), "first_e_with_summand": 1,
                          "terms": (), "final_deviation": None},
    ClassConvergenceTable: {"ring": "r", "p": 2, "exact_signature": Fraction(1, 3),
                            "rows": ()},
    CorpusError: {"ring": "r", "p": 2, "kind": "cap", "message": "m"},
    CorpusReport: {"verdicts": (), "errors": ()},
    Labelled: {"name": "r", "label": "l"},
}
TYPES = pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)


def test_every_record_type_is_listed():
    assert len(FIELDS) == 18
    package = {c for c in Record.__subclasses__() if c.__module__.startswith("toricfsig.")}
    assert package == {c for c in FIELDS if c.__module__.startswith("toricfsig.")}


@TYPES
def test_positional_and_keyword_construction(cls):
    fields = FIELDS[cls]
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword
    for name, value in fields.items():
        assert getattr(by_position, name) == value
    assert repr(by_keyword) == (
        f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
    )


@TYPES
def test_every_field_is_required(cls):
    fields = FIELDS[cls]
    for name in fields:
        with pytest.raises(TypeError, match=rf"missing .*'{name}'"):
            cls(**{k: v for k, v in fields.items() if k != name})


@TYPES
def test_missing_or_unknown_argument_is_a_type_error(cls):
    fields = FIELDS[cls]
    first, *rest = fields
    with pytest.raises(TypeError):
        cls(**{k: fields[k] for k in rest})
    with pytest.raises(TypeError):
        cls(**fields, bogus=1)
    with pytest.raises(TypeError):
        cls(*fields.values(), 1)


@TYPES
def test_records_are_immutable(cls):
    record = cls(**FIELDS[cls])
    name = next(iter(FIELDS[cls]))
    with pytest.raises(AttributeError):
        setattr(record, name, 1)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, name) == FIELDS[cls][name]


def test_equality_and_hash_follow_the_compared_fields():
    a, b = ClassElement((1,), (2,)), ClassElement((1,), (2,))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != ClassElement((1,), (0,))
    assert IntMat(1, 2, (1, 2)) != IntMat(2, 1, (1, 2))
    # a ring is its name, lattice and facets
    plain = RingSpec(SPEC.name, SPEC.lattice, SPEC.facets)
    assert plain == SPEC and hash(plain) == hash(SPEC)
    assert class_group(plain) == class_group(SPEC)
    assert RingSpec("other", SPEC.lattice, SPEC.facets) != SPEC
    assert RingSpec(SPEC.name, SPEC.lattice, SPEC.facets[::-1]) != SPEC


def test_memoised_ring_values_leave_equality_hash_and_repr_alone():
    spec = RingSpec(SPEC.name, SPEC.lattice, SPEC.facets)
    before = (repr(spec), hash(spec))
    cg = class_group(spec)
    assert spec.unit_region_volume == Fraction(1, 3)
    assert (repr(spec), hash(spec)) == before and spec == SPEC
    assert class_group(spec) is cg and spec.pairings is spec.pairings


def test_records_of_different_types_are_unequal():
    class Left(Record):
        x: int

    class Right(Record):
        x: int

    assert Left(1) == Left(1)
    assert Left(1) != Right(1)
    assert Left(1).__eq__(Right(1)) is NotImplemented
    assert WeilDivisor((1, 2)) != (1, 2)
    assert FrobeniusContext(2, 1) != ExactFSignature(2, 1)


def test_post_init_checks_still_fire():
    with pytest.raises(ValueError, match="expected 4 entries, got 3"):
        IntMat(2, 2, (1, 2, 3))
    with pytest.raises(ValueError, match="negative"):
        IntMat(-1, 0, ())
    with pytest.raises(ValueError, match="not prime"):
        FrobeniusContext(4, 1)
    with pytest.raises(ValueError, match="at least 1"):
        FrobeniusContext(2, 0)

    class Checked(Record):
        x: int
        y: int

        def __post_init__(self):
            if self.x < self.y:
                raise ValueError("x below y")

    assert Checked(1, 0).y == 0
    with pytest.raises(ValueError):
        Checked(1, y=2)


def test_weil_divisor_normalises_coefficients_to_int():
    d = WeilDivisor([True, Fraction(4, 2), -3])
    assert d.coeffs == (1, 2, -3)
    assert type(d.coeffs) is tuple
    assert all(type(c) is int for c in d.coeffs)
    assert d == WeilDivisor((1, 2, -3))
