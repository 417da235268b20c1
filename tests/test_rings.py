import json
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    coefficients_of,
    contains,
    covolume,
    dump_ring_file,
    point_from_coefficients,
)
from regen_golden import RING_FILES
from test_cli import DENSE
from test_frobenius import BOX_RING, KLEIN, MIXED, random_spec
from test_geometry import affine_rank

from toricfsig.caps import CapExceededError
from toricfsig.geometry import dot, matrix_rank
from toricfsig.linalg import IntMat
from toricfsig.rings import (
    FacetFunctional,
    Lattice,
    RingFormatError,
    RingSpec,
    _FAMILY_ALIASES,
    is_prime,
    load_ring_file,
    parse_builtin,
    ring_from_dict,
    ring_to_dict,
    unit_region_vertices,
    validate,
)

# builtins are never validated at run time, so every family is validated here
ALL_BUILTINS = (
    [f"poly:{d}" for d in range(1, 7)] + ["quadric"]
    + [f"an:{n}" for n in range(2, 65)]
    + [f"veronese:{n}" for n in range(2, 65)]
)


@pytest.mark.parametrize("token", ALL_BUILTINS)
def test_builtin_rings_validate(token):
    spec = parse_builtin(token)
    assert validate(spec) == []


def test_covolumes():
    for n in range(2, 7):
        assert covolume(parse_builtin(f"an:{n}").lattice) == n
        assert covolume(parse_builtin(f"veronese:{n}").lattice) == n
    for d in (1, 2, 3):
        assert covolume(parse_builtin(f"poly:{d}").lattice) == 1
    assert covolume(parse_builtin("quadric").lattice) == 1


def test_contains_congruence():
    a1 = parse_builtin("an:2")
    assert contains(a1, (1, 1))
    assert not contains(a1, (1, 2))  # 1 and 2 differ mod 2
    assert contains(a1, (0, 0))
    assert not contains(a1, (-1, 1))  # in L but outside the cone
    with pytest.raises(ValueError):
        contains(a1, (1, 2, 3))


def test_contains_veronese_and_quadric():
    v3 = parse_builtin("veronese:3")
    assert contains(v3, (1, 2))
    assert not contains(v3, (1, 1))
    q = parse_builtin("quadric")
    assert contains(q, (1, 0, 0))
    assert not contains(q, (0, 0, 1))  # fails the mixed facet


def test_validate_half_plane_not_pointed():
    spec = RingSpec(
        "halfplane", Lattice(IntMat.identity(2)), (FacetFunctional((F(1), F(0))),)
    )
    assert validate(spec) == ["cone not pointed"]


def test_validate_non_integral_functional():
    spec = RingSpec(
        "halfint",
        Lattice(IntMat.identity(2)),
        (FacetFunctional((F(1, 2), F(0))), FacetFunctional((F(0), F(1)))),
    )
    assert validate(spec) == ["functional not integer-valued on L (facet 0)"]


def test_validate_imprimitive_functional():
    spec = RingSpec(
        "nonprim",
        Lattice(IntMat.identity(2)),
        (FacetFunctional((F(2), F(0))), FacetFunctional((F(0), F(1)))),
    )
    assert validate(spec) == ["functional not primitive on L (facet 0)"]


def test_validate_fractional_functional_on_coarse_lattice_is_fine():
    # (1/2, 0) is integer-valued and primitive on the lattice 2Z x Z
    spec = RingSpec(
        "coarse",
        Lattice(IntMat.from_rows([[2, 0], [0, 1]])),
        (FacetFunctional((F(1, 2), F(0))), FacetFunctional((F(0), F(1)))),
    )
    assert validate(spec) == []


def test_validate_redundant_facet():
    spec = RingSpec(
        "redund",
        Lattice(IntMat.identity(2)),
        tuple(
            FacetFunctional(c)
            for c in [(F(1), F(0)), (F(0), F(1)), (F(1), F(1))]
        ),
    )
    assert validate(spec) == ["redundant facet (facet 2)"]


def test_validate_duplicate_facet():
    spec = RingSpec(
        "dup",
        Lattice(IntMat.identity(2)),
        tuple(
            FacetFunctional(c)
            for c in [(F(1), F(0)), (F(0), F(1)), (F(1), F(0))]
        ),
    )
    problems = validate(spec)
    assert any("duplicate facet" in p for p in problems)


def test_validate_pointed_but_not_full_dimensional():
    spec = RingSpec(
        "flat",
        Lattice(IntMat.identity(2)),
        tuple(
            FacetFunctional(c)
            for c in [(F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1))]
        ),
    )
    assert validate(spec) == ["cone not full-dimensional"]


def test_validate_singular_lattice():
    spec = RingSpec(
        "sing",
        Lattice(IntMat.from_rows([[1, 1], [2, 2]])),
        (FacetFunctional((F(1), F(0))),),
    )
    assert validate(spec) == ["lattice basis not full rank"]


def test_builtin_param_errors():
    cases = {
        "an:1": "an_singularity needs n >= 2",
        "veronese:0": "veronese needs n >= 2",
        "poly:0": "polynomial ring needs dimension >= 1",
        "quadric_cone:3": "builtin ring 'quadric_cone:3' takes no parameters",
        "quadric:0": "builtin ring 'quadric:0' takes no parameters",
        "quadric:3": "builtin ring 'quadric:3' takes no parameters",
        "quadric_cone:1,2": "builtin ring 'quadric_cone:1,2' takes no parameters",
        "abc": "unknown builtin ring 'abc'",
        "nope:3": "unknown builtin ring 'nope:3'",
        "an": "builtin ring 'an' needs exactly one parameter",
        "an:x": "bad parameters in builtin ring 'an:x'",
    }
    for token, message in cases.items():
        with pytest.raises(ValueError) as info:
            parse_builtin(token)
        assert str(info.value) == message


def test_parse_builtin_aliases():
    canonical = {"polynomial": "poly:3", "an_singularity": "an:3",
                 "veronese": "veronese:3", "quadric_cone": "quadric"}
    for alias, family in _FAMILY_ALIASES.items():
        address = alias if family == "quadric_cone" else f"{alias}:3"
        assert parse_builtin(address).name == canonical[family]
    assert parse_builtin("poly:2") == parse_builtin("polynomial:2")
    assert parse_builtin("ver:3") == parse_builtin("veronese:3")


def test_ring_file_round_trip(tmp_path):
    for token in ["an:3", "veronese:4", "quadric", "poly:2"]:
        spec = parse_builtin(token)
        path = tmp_path / f"{token.replace(':', '_')}.json"
        dump_ring_file(spec, str(path))
        loaded = load_ring_file(str(path))
        assert loaded.name == spec.name
        assert loaded.lattice == spec.lattice
        assert loaded.facets == spec.facets
        assert validate(loaded) == []


def test_ring_dict_rational_facets():
    data = {
        "name": "coarse",
        "dim": 2,
        "lattice_basis": [[2, 0], [0, 1]],
        "facets": [["1/2", "0"], ["0", "1"]],
    }
    spec = ring_from_dict(data)
    assert spec.facets[0].covector == (F(1, 2), F(0))
    assert validate(spec) == []
    assert ring_to_dict(spec) == data


def test_ring_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    with pytest.raises(RingFormatError):
        load_ring_file(str(bad))
    with pytest.raises(RingFormatError):
        load_ring_file(str(tmp_path / "missing.json"))
    with pytest.raises(RingFormatError):
        ring_from_dict({"name": "x", "dim": 2, "lattice_basis": [[1, 0]], "facets": []})
    with pytest.raises(RingFormatError):
        ring_from_dict(
            {
                "name": "x",
                "dim": 2,
                "lattice_basis": [[1, 0], [0, 1]],
                "facets": [["1"]],
            }
        )
    good = {"name": "x", "dim": 2, "lattice_basis": [[1, 0], [0, 1]], "facets": []}
    for key, value in [
        ("dim", 2.5),
        ("dim", True),
        ("dim", float("inf")),
        ("lattice_basis", [[1.5, 0], [0, 1]]),
        ("lattice_basis", [[True, 0], [0, 1]]),
    ]:
        with pytest.raises(RingFormatError, match="must be an integer"):
            ring_from_dict({**good, key: value})
    # integral JSON numbers and integer strings still parse
    for key, value in [("dim", 2.0), ("dim", "2"), ("lattice_basis", [["1", 0.0], [0, 1]])]:
        assert ring_from_dict({**good, key: value}).lattice.basis == IntMat.identity(2)


def test_lattice_coefficients_round_trip():
    rng = random.Random(1)
    for token in ["an:3", "veronese:4", "quadric"]:
        spec = parse_builtin(token)
        for _ in range(25):
            c = tuple(rng.randint(-10, 10) for _ in range(spec.dim))
            u = point_from_coefficients(spec.lattice, c)
            assert coefficients_of(spec.lattice, u) == c
        assert coefficients_of(spec.lattice, (1,) * spec.dim) is None or contains(
            spec, (1,) * spec.dim
        ) in (True, False)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["an:2", "an:5", "veronese:3", "quadric"]),
    st.data(),
)
def test_semigroup_closed_under_addition(token, data):
    spec = parse_builtin(token)
    d = spec.dim
    members = []
    tries = 0
    while len(members) < 2 and tries < 200:
        tries += 1
        u = tuple(data.draw(st.integers(0, 8)) for _ in range(d))
        if contains(spec, u):
            members.append(u)
    if len(members) == 2:
        total = tuple(a + b for a, b in zip(*members))
        assert contains(spec, total)


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if _is_prime_by_trial_division(n)
    ]


def test_is_prime_on_strong_pseudoprimes_and_large_primes():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2..23
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1)
    assert not is_prime((2**31 - 1) * (2**32 - 5))
    assert is_prime(2**64 - 59)  # the largest prime below 2^64
    with pytest.raises(ValueError, match="below 2\\^64"):
        is_prime(2**64)


def validate_tail_reference(spec):
    """The flat and redundant-facet verdicts of validate by Fraction
    elimination: the affine rank of the unit-region vertices, then of those
    on each facet."""
    d = spec.dim
    vertices = unit_region_vertices(spec)
    if affine_rank(vertices) < d:
        return ["cone not full-dimensional"]
    return [
        f"redundant facet (facet {i})"
        for i, f in enumerate(spec.facets)
        if affine_rank([v for v in vertices if f.pairing(v) == 0]) != d - 1
    ]


def test_validate_matches_affine_rank_reference():
    rng = random.Random(31)
    kinds = ("plain", "redundant", "flat", "duplicate", "multiple")
    seen = {"redundant": 0, "flat": 0, "duplicate": 0, "valid": 0}
    for case in range(1000):
        spec = random_spec(rng, 1 + case % 4, kinds[case // 4 % len(kinds)])
        got = validate(spec)
        if matrix_rank([f.covector for f in spec.facets]) == spec.dim:
            tail = validate_tail_reference(spec)
            assert got[len(got) - len(tail):] == tail, (spec, got)
            assert not any(
                v in ("cone not full-dimensional", "cone not pointed") or v.startswith("redundant")
                for v in got[: len(got) - len(tail)]
            ), (spec, got)
        seen["redundant"] += any(v.startswith("redundant facet") for v in got)
        seen["flat"] += "cone not full-dimensional" in got
        seen["duplicate"] += any(v.startswith("duplicate facet") for v in got)
        seen["valid"] += not got
    assert min(seen.values()) >= 20, seen


BAD_FILE_VERDICTS = {
    "bad_dim0.json": ["dimension must be at least 1"],
    "bad_rank.json": ["lattice basis not full rank"],
    "bad_integral.json": ["functional not integer-valued on L (facet 0)"],
    "bad_primitive.json": ["functional not primitive on L (facet 0)"],
    "bad_duplicate.json": ["duplicate facet (0, 2)"],
    "bad_pointed.json": ["cone not pointed"],
    "bad_flat.json": ["cone not full-dimensional"],
    "bad_redundant.json": ["redundant facet (facet 2)"],
    "bad_several.json": [
        "functional not integer-valued on L (facet 0)",
        "functional not primitive on L (facet 1)",
        "functional not primitive on L (facet 2)",
        "duplicate facet (1, 2)",
    ],
    "bad_half_redundant.json": [
        "functional not integer-valued on L (facet 0)", "redundant facet (facet 2)"
    ],
    "bad_half_pointed.json": ["functional not integer-valued on L (facet 0)", "cone not pointed"],
}


def test_validate_never_reads_the_unit_region(monkeypatch):
    # validate answers its questions on the cone {c : g_i.c >= 0}, which has
    # d rays where the unit region of poly:d has 2^d vertices: with the unit
    # region made to raise, every verdict stands
    rng = random.Random(31)
    kinds = ("plain", "redundant", "flat", "duplicate", "multiple")
    cases = [random_spec(rng, 1 + case % 4, kinds[case // 4 % len(kinds)]) for case in range(1000)]
    want = [validate(spec) for spec in cases]  # pinned by the affine-rank reference test

    def refuse(spec):
        raise AssertionError(f"validate read the unit region of {spec.name}")

    monkeypatch.setattr(RingSpec, "unit_region", property(refuse))
    assert sorted(BAD_FILE_VERDICTS) == sorted(n for n in RING_FILES if n.startswith("bad_"))
    for name, verdict in BAD_FILE_VERDICTS.items():
        assert validate(ring_from_dict(json.loads(RING_FILES[name]))) == verdict, name
    for doc in (KLEIN, MIXED, BOX_RING, DENSE):
        assert validate(ring_from_dict(doc)) == [], doc["name"]
    for token in ALL_BUILTINS:
        assert validate(parse_builtin(token)) == [], token
    assert [validate(spec) for spec in cases] == want
    with pytest.raises(AssertionError, match="read the unit region"):
        unit_region_vertices(cases[0])


def test_validate_caps_the_cones_double_description():
    # the 28 facets (1, t, ..., t^8) give a cone of 12,397 rays, about 14 s
    # of double description; a cap of 10 stops it at the first inserted rows
    spec = ring_from_dict(json.loads(RING_FILES["cyclic28.json"]))
    start = time.process_time()
    with pytest.raises(CapExceededError, match="needs 20 pair tests, over the cap of 10;"):
        validate(spec, cap=10)
    assert time.process_time() - start < 0.5


def test_pairings_are_the_facet_pairings():
    # ints where a functional is integer-valued on the basis row, a Fraction
    # elsewhere, and equal to FacetFunctional.pairing and dot either way
    rng = random.Random(28)
    specs = [random_spec(rng, rng.randint(1, 4), kind) for kind in
             ("plain", "redundant", "flat", "duplicate", "multiple") for _ in range(20)]
    for _ in range(100):
        d = rng.randint(1, 4)
        basis = IntMat.from_rows([[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)])
        facets = tuple(
            FacetFunctional(tuple(F(rng.randint(-9, 9), rng.choice((1, 2, 3, 6, 7)))
                                  for _ in range(d)))
            for _ in range(rng.randint(0, 5))
        )
        specs.append(RingSpec("rational", Lattice(basis), facets))
    fractions = 0
    for spec in specs:
        rows = spec.lattice.basis.to_rows()
        for f, g in zip(spec.facets, spec.pairings, strict=True):
            assert g == tuple(f.pairing(b) for b in rows) == tuple(dot(f.covector, b)
                                                                   for b in rows)
            assert all(type(v) is int if v.denominator == 1 else type(v) is F for v in g)
            fractions += sum(type(v) is F for v in g)
    assert fractions > 50
