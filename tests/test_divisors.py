import contextlib
import io
import random
import re
from pathlib import Path

import pytest
from helpers import divisorial_points, order_of_class, point_from_coefficients, principal_divisor

from toricfsig.caps import CapExceededError
from toricfsig.divisors import (
    WeilDivisor,
    class_group,
    class_of,
    torsion_elements,
)
from toricfsig.rings import parse_builtin


def test_weil_divisor_arithmetic():
    a = WeilDivisor((1, -2))
    b = WeilDivisor((3, 4))
    assert (a + b).coeffs == (4, 2)
    assert (a - b).coeffs == (-2, -6)
    assert (-a).coeffs == (-1, 2)
    assert (3 * a).coeffs == (3, -6)
    with pytest.raises(ValueError):
        a + WeilDivisor((1, 2, 3))


def test_principal_divisor_pairings():
    an3 = parse_builtin("an:3")
    assert principal_divisor(an3, (1, 1)).coeffs == (1, 1)
    assert principal_divisor(an3, (3, 0)).coeffs == (3, 0)
    quadric = parse_builtin("quadric")
    assert principal_divisor(quadric, (1, 0, 0)).coeffs == (1, 0, 0, 1)
    with pytest.raises(ValueError):
        principal_divisor(an3, (1, 0))  # not in the congruence lattice


@pytest.mark.parametrize(
    "token,free,factors",
    [("poly:1", 0, ()), ("poly:2", 0, ()), ("poly:3", 0, ())]
    + [(f"an:{n}", 0, (n,)) for n in range(2, 7)]
    + [(f"veronese:{n}", 0, (n,)) for n in range(2, 7)]
    + [("quadric", 1, ())],
)
def test_class_groups(token, free, factors):
    cg = class_group(parse_builtin(token))
    assert cg.free_rank == free
    assert cg.invariant_factors == factors
    assert cg.torsion_cardinality == (1 if not factors else factors[0])


def test_class_of_principal_is_zero():
    rng = random.Random(3)
    for token in ["an:4", "veronese:3", "quadric", "poly:2"]:
        spec = parse_builtin(token)
        cg = class_group(spec)
        for _ in range(30):
            c = tuple(rng.randint(-6, 6) for _ in range(spec.dim))
            u = point_from_coefficients(spec.lattice, c)
            assert class_of(cg, principal_divisor(spec, u)).is_zero


def test_facet_classes_generate():
    # the two facet divisors of the xy = z^n family are opposite generators
    for n in (2, 3, 5):
        spec = parse_builtin(f"an:{n}")
        cg = class_group(spec)
        c10 = class_of(cg, WeilDivisor((1, 0)))
        c01 = class_of(cg, WeilDivisor((0, 1)))
        assert order_of_class(cg, c10) == n
        assert order_of_class(cg, c01) == n
        assert cg.add(c10, c01).is_zero  # their sum is div(xy)
    spec2 = parse_builtin("an:2")
    cg2 = class_group(spec2)
    assert class_of(cg2, WeilDivisor((1, 0))) == class_of(cg2, WeilDivisor((0, 1)))


def test_class_of_is_homomorphism():
    rng = random.Random(17)
    for token in ["an:5", "veronese:4", "quadric"]:
        spec = parse_builtin(token)
        cg = class_group(spec)
        m = spec.num_facets
        for _ in range(40):
            d1 = WeilDivisor(tuple(rng.randint(-9, 9) for _ in range(m)))
            d2 = WeilDivisor(tuple(rng.randint(-9, 9) for _ in range(m)))
            assert class_of(cg, d1 + d2) == cg.add(class_of(cg, d1), class_of(cg, d2))
            assert cg.add(class_of(cg, -d1), class_of(cg, d1)).is_zero


def test_order_of_class():
    cg = class_group(parse_builtin("an:6"))
    assert order_of_class(cg, cg.zero()) == 1
    orders = sorted(
        order_of_class(cg, c) for c in torsion_elements(cg)
    )
    assert orders == [1, 2, 3, 3, 6, 6]  # element orders in Z/6
    for c in torsion_elements(cg):
        assert cg.torsion_cardinality % order_of_class(cg, c) == 0

    quadric_cg = class_group(parse_builtin("quadric"))
    inf = class_of(quadric_cg, WeilDivisor((1, 0, 0, 0)))
    assert order_of_class(quadric_cg, inf) is None


def test_torsion_elements_enumeration():
    poly = class_group(parse_builtin("poly:2"))
    assert torsion_elements(poly) == [poly.zero()]
    an3 = class_group(parse_builtin("an:3"))
    elems = torsion_elements(an3)
    assert len(elems) == 3
    assert [e.torsion for e in elems] == [(0,), (1,), (2,)]  # lexicographic
    ver4 = class_group(parse_builtin("veronese:4"))
    assert len(torsion_elements(ver4)) == 4
    with pytest.raises(CapExceededError):
        torsion_elements(an3, cap=2)


def test_torsion_elements_reads_the_cap_variable(monkeypatch):
    an3 = class_group(parse_builtin("an:3"))
    monkeypatch.setenv("TORICFSIG_CAP", "2")
    with pytest.raises(CapExceededError, match="needs 3 classes, over the cap of 2"):
        torsion_elements(an3)
    monkeypatch.setenv("TORICFSIG_CAP", "3")
    assert len(torsion_elements(an3)) == 3


def test_divisorial_points_examples():
    an2 = parse_builtin("an:2")
    pts = divisorial_points(an2, WeilDivisor((1, 0)), [(-1, 2), (-1, 2)])
    assert (-1, 1) in pts
    assert pts == [(-1, 1), (0, 0), (1, 1)]

    semigroup = divisorial_points(an2, WeilDivisor((0, 0)), [(0, 4), (0, 4)])
    assert semigroup == [
        (0, 0), (0, 2), (1, 1), (1, 3), (2, 0), (2, 2), (3, 1), (3, 3)
    ]

    strict = divisorial_points(an2, WeilDivisor((-1, -1)), [(-2, 3), (-2, 3)])
    assert (0, 0) not in strict
    assert strict == [(1, 1), (2, 2)]


def test_divisorial_points_translation():
    spec = parse_builtin("an:3")
    rng = random.Random(4)
    for _ in range(10):
        d = WeilDivisor((rng.randint(-2, 2), rng.randint(-2, 2)))
        v = point_from_coefficients(spec.lattice, (rng.randint(-2, 2), rng.randint(-2, 2)))
        box = [(-6, 7), (-6, 7)]
        shifted_box = [(lo + x, hi + x) for (lo, hi), x in zip(box, v)]
        translated = {
            tuple(a + b for a, b in zip(u, v))
            for u in divisorial_points(spec, d, box)
        }
        retargeted = set(
            divisorial_points(spec, d - principal_divisor(spec, v), shifted_box)
        )
        assert translated == retargeted


def test_divisorial_points_superadditive():
    # sums of sections of D1 and D2 are sections of D1 + D2
    spec = parse_builtin("veronese:3")
    rng = random.Random(9)
    for _ in range(10):
        d1 = WeilDivisor((rng.randint(-2, 2), rng.randint(-2, 2)))
        d2 = WeilDivisor((rng.randint(-2, 2), rng.randint(-2, 2)))
        box = [(-4, 5), (-4, 5)]
        pts1 = divisorial_points(spec, d1, box)
        pts2 = divisorial_points(spec, d2, box)
        target = set(divisorial_points(spec, d1 + d2, [(-8, 9), (-8, 9)]))
        for u in pts1:
            for v in pts2:
                assert tuple(a + b for a, b in zip(u, v)) in target


def test_divisorial_points_argument_checks():
    spec = parse_builtin("an:2")
    with pytest.raises(ValueError):
        divisorial_points(spec, WeilDivisor((1, 2, 3)), [(-1, 1), (-1, 1)])
    with pytest.raises(ValueError):
        divisorial_points(spec, WeilDivisor((1, 0)), [(-1, 1)])


def test_projection_matrix_shape():
    for token in ["an:4", "quadric", "poly:3"]:
        spec = parse_builtin(token)
        cg = class_group(spec)
        assert cg.projection.rows == cg.free_rank + len(cg.invariant_factors)
        assert cg.projection.cols == spec.num_facets


def _count_calls(monkeypatch, owner, name):
    """Calls of ``owner.name`` from now on, one list item each."""
    calls = []
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a: calls.append(1) or real(*a))
    return calls


def test_corpus_run_prepares_each_ring_once(monkeypatch):
    # verify --corpus runs 14 rings at 3 primes: G, the Smith form, the
    # double description of the unit region and its volume are made once
    # per ring, not once per use; no module-level cache is left to do it
    from toricfsig import cli, divisors, geometry, rings
    from toricfsig.rings import RingSpec

    counts = {
        "G": _count_calls(monkeypatch, RingSpec.__dict__["pairings"], "func"),
        "smith": _count_calls(monkeypatch, divisors, "smith_normal_form"),
        "double description": _count_calls(monkeypatch, geometry, "_extreme_rays"),
        "volume": _count_calls(monkeypatch, rings, "incidence_volume"),
    }
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--corpus", "-p", "2,3,5", "-e", "8"]) == 0
    assert {k: len(v) for k, v in counts.items()} == {
        "G": 14, "smith": 14, "double description": 14, "volume": 14,
    }
    src = Path(rings.__file__).parent
    for path in src.glob("*.py"):
        assert not re.search(r"lru_cache|@(functools\.)?cache\b", path.read_text()), path.name
