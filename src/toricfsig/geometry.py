"""Exact polytope computations by an integer double description.

A polytope is handed around in H-form, a list of halfspaces (a, b) meaning
a.u <= b with rational coefficients.  Each halfspace becomes the primitive
integer row h = (-a, b) * den of the homogenised cone

    C = {(u, t) : t >= 0 and b*t - a.u >= 0 for every halfspace},

whose extreme rays with t > 0 are the vertices (u, 1) scaled by t.  The
rays come from the double description method (Fukuda and Prodon, "Double
description method revisited", 1996): start from the simplicial cone of
d + 1 independent rows, insert the other rows one at a time, and combine
only the adjacent pairs of rays the new row separates.  The starting rows
B are the pivot columns of the Hermite normal form of the rows read as
columns, t >= 0 first, and the starting rays are the columns of
B^-1 = V S^-1 U, from the Smith form U B V = S.  Rows of rank below d + 1
give no starting cone: the cone then contains a line, and the double
description returns None.  Every ray is a primitive integer vector, so no
Fraction appears until a vertex is divided by its t.

Each ray carries its zero set, the bitmask of rows it is tight on, which is
the exact vertex-halfspace incidence.  Adjacency is decided from zero sets
alone, and so is the volume: the facets of a face are the inclusion-maximal
proper vertex subsets that one more halfspace makes tight, each face is
triangulated by coning from one vertex over the facets avoiding it, and
every simplex volume is an integer determinant of rays over the product of
their t.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .caps import check_cap
from .linalg import IntMat, hermite_normal_form, smith_normal_form

Point = tuple[Fraction, ...]
Halfspace = tuple[tuple[Fraction, ...], Fraction]


def dot(a, u) -> Fraction:
    return sum((x * y for x, y in zip(a, u)), Fraction(0))


def solve_square(rows, rhs):
    """Solve the square rational system rows*x = rhs.

    Returns the unique solution or None when the matrix is singular.
    """
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return None
        a[k], a[pivot] = a[pivot], a[k]
        pk = a[k][k]
        a[k] = [x / pk for x in a[k]]
        for i in range(n):
            if i != k and a[i][k]:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return tuple(a[i][n] for i in range(n))


def matrix_rank(rows) -> int:
    """Rank of a rational matrix by Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    if not a:
        return 0
    ncols = len(a[0])
    rank = 0
    col = 0
    while rank < len(a) and col < ncols:
        pivot = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pivot is None:
            col += 1
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        pk = a[rank][col]
        a[rank] = [x / pk for x in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
        col += 1
    return rank


def _primitive(v) -> tuple[int, ...]:
    g = math.gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def integer_row(coeffs) -> tuple[int, ...]:
    """The primitive integer multiple of a rational row by a positive scale,
    which keeps the halfspace h.x >= 0 as it is."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return _primitive([c.numerator * (den // c.denominator) for c in coeffs])


def _cone_rows(halfspaces: list[Halfspace], dim: int) -> list[tuple[int, ...]]:
    """Primitive integer rows h of C = {x : h.x >= 0}: row i for halfspace i,
    then the row of t >= 0."""
    return [integer_row([-x for x in a] + [b]) for a, b in halfspaces] + [(0,) * dim + (1,)]


def _extreme_rays(rows, dim: int, cap: int | None = None):
    """Extreme rays of {x in R^(dim+1) : h.x >= 0 for every row h}, each a
    primitive integer ray with its zero set (bit k: tight on rows[k]).
    None when the rows have rank below dim + 1: the cone then contains a
    line.  With a cap, raises CapExceededError once the pairs of rays that
    the inserted rows test add up to more than the cap."""
    n = dim + 1
    indices = list(range(len(rows)))
    order = indices[-1:] + indices[:-1]  # t >= 0 first
    # the first n independent rows in that order are the pivot columns of
    # the Hermite form of the rows read as columns; its zero rows trail
    columns = IntMat(n, len(order), tuple(rows[k][i] for i in range(n) for k in order))
    hnf, _ = hermite_normal_form(columns)
    pivots = [next((j for j, x in enumerate(hnf.row(i)) if x), None) for i in range(n)]
    if pivots[-1] is None:
        return None
    basis = [order[j] for j in pivots]
    # the simplicial cone of the basis rows B: ray j is column j of B^-1,
    # tight on every basis row but the j-th, here V diag(s_n/s_i) U
    smith = smith_normal_form(IntMat.from_rows([rows[k] for k in basis]))
    scale = [smith.S.at(dim, dim) // s for s in smith.diagonal()]
    rays = [_primitive(smith.V.mul_vector([c * x for c, x in zip(scale, smith.U.col(j))]))
            for j in range(n)]
    in_basis = sum(1 << k for k in basis)
    zeros = [in_basis ^ (1 << k) for k in basis]
    pair_tests = 0
    for k in order:
        if in_basis >> k & 1:
            continue
        h, bit = rows[k], 1 << k
        vals = [sum(x * y for x, y in zip(h, r)) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        pair_tests += len(pos) * len(neg)
        if cap is not None:
            check_cap(pair_tests, cap, "the cone's double description", "pair tests")
        new_rays = [r for r, v in zip(rays, vals) if v >= 0]
        new_zeros = [z | bit if v == 0 else z for z, v in zip(zeros, vals) if v >= 0]
        for i in pos:
            for j in neg:
                z = zeros[i] & zeros[j]
                # adjacent: a 2-face needs n - 2 tight rows, and no third
                # ray may be tight on all of them
                if z.bit_count() < n - 2 or any(
                    w & z == z for m, w in enumerate(zeros) if m != i and m != j
                ):
                    continue
                vi, vj = vals[i], -vals[j]
                new_rays.append(_primitive([vi * y + vj * x for x, y in zip(rays[i], rays[j])]))
                new_zeros.append(z | bit)
        rays, zeros = new_rays, new_zeros
    return list(zip(rays, zeros))


def _vertex_rays(halfspaces: list[Halfspace], dim: int):
    """The vertices of {u : a.u <= b} as rays (u*t, t) with t > 0, each with
    its zero set over the halfspaces."""
    rays = _extreme_rays(_cone_rows(halfspaces, dim), dim) or []
    return [(r, z) for r, z in rays if r[-1] > 0]


def enumerate_vertices(halfspaces: list[Halfspace], dim: int) -> list[Point]:
    """All vertices of the polyhedron {u : a.u <= b}, sorted.

    Unbounded regions give their vertices only; empty regions and regions
    containing a line give none.
    """
    return sorted(
        tuple(Fraction(x, r[-1]) for x in r[:-1]) for r, _ in _vertex_rays(halfspaces, dim)
    )


def _triangulate(face: int, dim: int, tight: list[int]) -> list[tuple[int, ...]]:
    """Simplices (vertex index tuples) covering the dim-face whose vertex
    bitmask is ``face``, by coning from its lowest vertex over the facets
    that avoid it.  ``tight[i]`` is the vertex bitmask of halfspace i."""
    if face.bit_count() == dim + 1:
        return [tuple(v for v in range(face.bit_length()) if face >> v & 1)]
    apex = face & -face
    facets = maximal({t & face for t in tight} - {0, face})
    return [(apex.bit_length() - 1,) + s for facet in facets if not facet & apex
            for s in _triangulate(facet, dim - 1, tight)]


def maximal(masks: set[int]) -> set[int]:
    """The inclusion-maximal members of a set of bitmasks.  Among the proper
    vertex or ray sets that rows make tight, they are the facets."""
    return {m for m in masks if not any(c != m and c & m == m for c in masks)}


def row_incidence(rays, nrows: int) -> list[int]:
    """Per row i of the ray list's cone, the bitmask of the rays (by their
    index in ``rays``) whose zero set holds row i."""
    return [sum(1 << v for v, (_, z) in enumerate(rays) if z >> i & 1) for i in range(nrows)]


def vertex_incidence(halfspaces: list[Halfspace], dim: int):
    """The vertices of a bounded region {u : a.u <= b} as rays (u*t, t),
    and the bitmask tight[i] of the vertices halfspace i is tight at."""
    vertices = _vertex_rays(halfspaces, dim)
    return vertices, row_incidence(vertices, len(halfspaces))


def incidence_volume(incidence, dim: int) -> Fraction:
    """Euclidean volume of a bounded region from its ``vertex_incidence``.

    Triangulates from the vertex-halfspace incidence and sums the simplex
    volumes, exact because every determinant is an integer.  An empty
    region has no simplex, and every simplex of a lower-dimensional one has
    determinant 0, so both yield 0.
    """
    vertices, tight = incidence
    total = Fraction(0)
    for simplex in _triangulate((1 << len(vertices)) - 1, dim, tight):
        rays = [vertices[v][0] for v in simplex]
        total += Fraction(abs(IntMat.from_rows(rays).det()), math.prod(r[-1] for r in rays))
    return total / math.factorial(dim)


def polytope_volume(halfspaces: list[Halfspace], dim: int) -> Fraction:
    """Euclidean volume of a bounded polytope given in H-form; degenerate
    (lower-dimensional or empty) input yields 0."""
    return incidence_volume(vertex_incidence(halfspaces, dim), dim)
