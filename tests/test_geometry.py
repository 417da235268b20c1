import itertools
import math
import random
from fractions import Fraction as F

import pytest
from helpers import KLEIN, MIXED, unit_region_halfspaces

from toricfsig.fsignature import exact_signature_volume
from toricfsig.geometry import (
    _extreme_rays,
    dot,
    enumerate_vertices,
    matrix_rank,
    polytope_volume,
    solve_square,
)
from toricfsig.rings import (
    parse_builtin,
    ring_from_dict,
    unit_region_vertices,
)


def reference_vertices(halfspaces, dim):
    """Vertices by brute force: solve every dim-subset of the bounding
    hyperplanes and keep the feasible solutions.  Sorted, deduplicated."""
    seen = set()
    for subset in itertools.combinations(range(len(halfspaces)), dim):
        rows = [halfspaces[i][0] for i in subset]
        rhs = [halfspaces[i][1] for i in subset]
        sol = solve_square(rows, rhs)
        if sol is None:
            continue
        if all(dot(a, sol) <= b for a, b in halfspaces):
            seen.add(sol)
    return sorted(seen)


def affine_rank(points) -> int:
    """Dimension of the affine hull of the given points (-1 when empty)."""
    pts = list(points)
    if not pts:
        return -1
    base = pts[0]
    return matrix_rank([[x - y for x, y in zip(p, base)] for p in pts[1:]])


def det_fraction(rows):
    """Determinant of a rational matrix by Gaussian elimination."""
    n = len(rows)
    a = [[F(x) for x in row] for row in rows]
    det = F(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return F(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] / a[k][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def unit_box(d):
    hs = []
    for j in range(d):
        e = tuple(F(1) if i == j else F(0) for i in range(d))
        hs.append((tuple(-x for x in e), F(0)))
        hs.append((e, F(1)))
    return hs


def test_solve_square():
    assert solve_square([[F(2), F(0)], [F(0), F(3)]], [F(4), F(9)]) == (F(2), F(3))
    assert solve_square([[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)]) is None


def test_ranks():
    assert matrix_rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert matrix_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert matrix_rank([]) == 0
    assert affine_rank([]) == -1
    assert affine_rank([(F(3), F(4))]) == 0
    assert affine_rank([(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]) == 2


def test_a_cone_with_a_line_has_no_ray_list():
    # rows of rank below dim + 1, no rows at all among them, leave a line in
    # the cone; a pointed cone gives its rays, and {0} none
    assert _extreme_rays([], 1) is None
    assert _extreme_rays([(1, 0), (2, 0), (-1, 0)], 1) is None
    assert _extreme_rays([(1,), (-1,)], 0) == []
    assert _extreme_rays([(1, 0), (1, 2), (2, 1)], 1) == [((0, 1), 0b001), ((2, -1), 0b010)]


def test_det_fraction():
    assert det_fraction([[F(1, 2), F(0)], [F(0), F(4)]]) == F(2)
    assert det_fraction([[F(1), F(2)], [F(2), F(4)]]) == 0


def test_unit_box_vertices_and_volume():
    for d in (1, 2, 3, 4):
        hs = unit_box(d)
        verts = enumerate_vertices(hs, d)
        assert len(verts) == 2**d
        assert polytope_volume(hs, d) == 1


def test_standard_simplex_volume():
    # x_i >= 0, sum x_i <= 1 has volume 1/d!
    fact = 1
    for d in (1, 2, 3, 4):
        fact *= d
        hs = [
            (tuple(F(-1) if i == j else F(0) for i in range(d)), F(0))
            for j in range(d)
        ]
        hs.append((tuple(F(1) for _ in range(d)), F(1)))
        assert polytope_volume(hs, d) == F(1, fact)


def test_degenerate_region_has_zero_volume():
    hs = [
        ((F(1), F(0)), F(0)),
        ((F(-1), F(0)), F(0)),
        ((F(0), F(1)), F(1)),
        ((F(0), F(-1)), F(0)),
    ]
    assert polytope_volume(hs, 2) == 0


def test_empty_region():
    hs = [((F(1),), F(0)), ((F(-1),), F(-1))]  # x <= 0 and x >= 1
    assert enumerate_vertices(hs, 1) == []
    assert polytope_volume(hs, 1) == 0


def _simplex_halfspaces(verts, d):
    """H-form of a simplex from its vertex list, each facet oriented by the
    vertex it omits."""
    hs = []
    for omit in range(d + 1):
        others = [v for t, v in enumerate(verts) if t != omit]
        base = others[0]
        # normal = vector orthogonal to the facet span, via cofactors of the
        # matrix of edge vectors
        edges = [[x - y for x, y in zip(v, base)] for v in others[1:]]
        normal = []
        for j in range(d):
            minor = [[row[t] for t in range(d) if t != j] for row in edges]
            normal.append((-1) ** j * det_fraction(minor))
        normal = tuple(normal)
        b = sum(n * x for n, x in zip(normal, base))
        inside = sum(n * x for n, x in zip(normal, verts[omit]))
        if inside > b:
            normal = tuple(-n for n in normal)
            b = -b
        hs.append((normal, b))
    return hs


def test_random_simplex_volumes_match_determinant_formula():
    rng = random.Random(42)
    fact = {1: 1, 2: 2, 3: 6, 4: 24}
    for d in (2, 3, 4):
        done = 0
        while done < 8:
            verts = [
                tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d))
                for _ in range(d + 1)
            ]
            edges = [[x - y for x, y in zip(v, verts[0])] for v in verts[1:]]
            det = det_fraction(edges)
            if det == 0:
                continue
            expected = abs(det) / fact[d]
            assert polytope_volume(_simplex_halfspaces(verts, d), d) == expected
            done += 1


def test_random_axis_boxes():
    rng = random.Random(7)
    for _ in range(10):
        d = rng.randint(1, 4)
        lows = [F(rng.randint(-5, 0), rng.randint(1, 4)) for _ in range(d)]
        highs = [lo + F(rng.randint(1, 8), rng.randint(1, 4)) for lo in lows]
        hs = []
        expected = F(1)
        for j in range(d):
            e = tuple(F(1) if i == j else F(0) for i in range(d))
            hs.append((tuple(-x for x in e), -lows[j]))
            hs.append((e, highs[j]))
            expected *= highs[j] - lows[j]
        assert polytope_volume(hs, d) == expected


def _unit_vector(d, j, scale=1):
    return tuple(F(scale) if i == j else F(0) for i in range(d))


def _random_halfspace(rng, d):
    a = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d))
    return a, F(rng.randint(-3, 6), rng.randint(1, 3))


def _random_case(rng, d, kind):
    """Halfspaces of one random polyhedron of the given kind."""
    if kind == "unbounded":
        # a translated positive orthant cut by halfspaces with nonpositive
        # normals through or beyond its apex: the orthant stays in the
        # recession cone
        apex = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d)]
        hs = [(_unit_vector(d, j, -1), -apex[j]) for j in range(d)]
        for _ in range(rng.randint(0, 3)):
            a = tuple(F(-rng.randint(0, 3), rng.randint(1, 2)) for _ in range(d))
            hs.append((a, dot(a, apex) + rng.randint(0, 2)))
        rng.shuffle(hs)
        return hs
    # a simplex x_j >= -r_j, sum x_j <= s keeps the region bounded
    hs = [(_unit_vector(d, j, -1), F(rng.randint(0, 6), rng.randint(1, 2))) for j in range(d)]
    hs.append((tuple(F(1) for _ in range(d)), F(rng.randint(1, 6), rng.randint(1, 2))))
    if kind == "nonsimple":
        # more than d hyperplanes through one point of the simplex
        point = [F(rng.randint(-1, 0), 3) for _ in range(d)]
        for _ in range(d + rng.randint(1, 2)):
            a = tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d))
            if any(a):
                hs.append((a, dot(a, point)))
    else:
        hs += [_random_halfspace(rng, d) for _ in range(rng.randint(0, 5 - d))]
    if kind == "flat":
        a, b = _random_halfspace(rng, d)
        hs += [(a, b), (tuple(-x for x in a), -b)]
    elif kind == "empty":
        a, b = _random_halfspace(rng, d)
        hs += [(a, b), (tuple(-x for x in a), -b - 1)]
    elif kind == "duplicate":
        a, b = rng.choice(hs)
        hs += [(a, b), (tuple(2 * x for x in a), 2 * b), (a, b + 1)]
    rng.shuffle(hs)
    return hs


KINDS = ("bounded", "unbounded", "nonsimple", "flat", "empty", "duplicate")


def test_vertices_match_subset_reference_on_random_polyhedra():
    rng = random.Random(2024)
    seen = {"nonsimple": 0, "unbounded": 0, "empty": 0, "flat": 0}
    for case in range(360):
        d = 1 + case % 4
        kind = KINDS[case // 4 % len(KINDS)]
        hs = _random_case(rng, d, kind)
        want = reference_vertices(hs, d)
        assert enumerate_vertices(hs, d) == want, (d, kind, hs)
        if kind == "nonsimple" and any(sum(dot(a, v) == b for a, b in hs) > d for v in want):
            seen["nonsimple"] += 1
        if kind == "unbounded" and want:
            seen["unbounded"] += 1
        if not want:
            seen["empty"] += 1
        elif affine_rank(want) < d:
            seen["flat"] += 1
    assert min(seen.values()) >= 20, seen


RING_CASES = [f"poly:{d}" for d in range(1, 8)] + ["quadric", "an:5", "veronese:7"]


@pytest.mark.parametrize("ring", RING_CASES + ["klein", "mixed"])
def test_unit_region_vertices_match_subset_reference(ring):
    docs = {"klein": KLEIN, "mixed": MIXED}
    spec = ring_from_dict(docs[ring]) if ring in docs else parse_builtin(ring)
    want = reference_vertices(unit_region_halfspaces(spec), spec.dim)
    assert list(unit_region_vertices(spec)) == want


def test_cross_polytope_volumes():
    # sum |x_i| <= 1: every vertex lies on 2^(d-1) facets
    for d in (2, 3, 4):
        hs = [
            (tuple(F(s) for s in signs), F(1))
            for signs in itertools.product((1, -1), repeat=d)
        ]
        assert len(enumerate_vertices(hs, d)) == 2 * d
        assert polytope_volume(hs, d) == F(2**d, math.factorial(d))


def test_square_pyramid_volume():
    # base [0,1]^2 at z = 0, apex (1/2, 1/2, 1) on four facets
    h = F(1, 2)
    hs = [
        ((F(0), F(0), F(-1)), F(0)),
        ((F(-1), F(0), h), F(0)),
        ((F(1), F(0), h), F(1)),
        ((F(0), F(-1), h), F(0)),
        ((F(0), F(1), h), F(1)),
    ]
    assert (h, h, F(1)) in enumerate_vertices(hs, 3)
    assert polytope_volume(hs, 3) == F(1, 3)


def test_volume_is_additive_under_rational_cuts():
    rng = random.Random(11)
    for case in range(40):
        d = 2 + case % 3
        hs = _random_case(rng, d, ("bounded", "nonsimple", "duplicate")[case % 3])
        verts = enumerate_vertices(hs, d)
        c = tuple(F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)) for _ in range(d))
        values = sorted(dot(c, v) for v in verts)
        k = values[0] + (values[-1] - values[0]) * F(rng.randint(1, 5), 6) if verts else F(0)
        below = polytope_volume(hs + [(c, k)], d)
        above = polytope_volume(hs + [(tuple(-x for x in c), -k)], d)
        assert polytope_volume(hs, d) == below + above


def test_exact_signature_volume_of_noncyclic_rings():
    assert exact_signature_volume(ring_from_dict(KLEIN)) == F(1, 4)
    assert exact_signature_volume(ring_from_dict(MIXED)) == F(7, 144)
