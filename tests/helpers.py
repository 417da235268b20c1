"""Library code that only the tests use: reference computations, the
one-off constructions of a few tests, and the ring documents that several
test modules and the golden commands share, kept out of the package.  It
imports nothing but the standard library and toricfsig, so that
``regen_golden.py`` runs without pytest."""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

from toricfsig.divisors import (
    ClassElement,
    ClassGroupData,
    WeilDivisor,
    class_group,
    torsion_elements,
)
from toricfsig.frobenius import FrobeniusContext, decompose, multiplicity_of
from toricfsig.fsignature import exact_signature_volume
from toricfsig.geometry import solve_square
from toricfsig.linalg import IntMat, smith_normal_form
from toricfsig.record import Record
from toricfsig.rings import Lattice, RingSpec, ring_to_dict


# k[x,y,z] invariants of the (Z/2)^2 generated by diag(-1,-1,1) and
# diag(1,-1,-1): exponents with a = b = c mod 2, torsion (Z/2)^2, all
# pairings nonnegative
KLEIN = {
    "name": "klein",
    "dim": 3,
    "lattice_basis": [[1, 1, 1], [2, 0, 0], [0, 2, 0]],
    "facets": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
}

# free rank 2 and torsion (Z/2)^2; the innermost column of G,
# (-3, 1, -3, 1, -1), has absolute sum 9 and mixed signs
MIXED = {
    "name": "mixed",
    "dim": 3,
    "lattice_basis": [[2, 0, 2], [0, 1, 1], [0, 0, 3]],
    "facets": [
        ["5/2", "5", "-1"],
        ["1/6", "-1/3", "1/3"],
        ["9/2", "5", "-1"],
        ["7/6", "-1/3", "1/3"],
        ["5/6", "7/3", "-1/3"],
    ],
}

# the second ring of the rings benchmark at seed 197: at q = 9 the bounding
# box of qP holds about 65 million points, past the default cap, in fewer
# lines than the cap
BOX_RING = {
    "name": "rand1:d4m6",
    "dim": 4,
    "lattice_basis": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 1]],
    "facets": [["-1", "6", "-1", "6"], ["-2", "0", "1", "1"], ["3", "10", "0", "4"],
               ["-1", "0", "2", "-1"], ["2", "4", "2", "-1"], ["5", "14", "6", "-1"]],
}

# a ring whose least column of G sums to 9 in d = 4: up to q = 121 the
# plane's split bound reaches q, so it takes every s as an interval of its own
DENSE = {
    "name": "dense",
    "dim": 4,
    "lattice_basis": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "facets": [["-3", "1", "1", "0"], ["2", "1", "-1", "3"], ["-1", "2", "1", "-3"],
               ["-2", "3", "-3", "2"], ["-2", "2", "2", "-1"]],
}


def covolume(lattice: Lattice) -> int:
    return abs(lattice.basis.det())


def coefficients_of(lattice: Lattice, u):
    """Coordinates of u in the basis, or None when u is not in L."""
    if len(u) != lattice.dim:
        raise ValueError(f"expected a vector of length {lattice.dim}")
    sol = solve_square(lattice.basis.transpose().to_rows(), [Fraction(x) for x in u])
    if sol is None or any(c.denominator != 1 for c in sol):
        return None
    return tuple(int(c) for c in sol)


def point_from_coefficients(lattice: Lattice, c):
    return tuple(
        sum(ci * lattice.basis.at(i, j) for i, ci in enumerate(c))
        for j in range(lattice.dim)
    )


def contains(spec: RingSpec, u) -> bool:
    """Semigroup membership: u lies in L and pairs nonnegatively with every
    facet."""
    if coefficients_of(spec.lattice, u) is None:
        return False
    return all(f.pairing(u) >= 0 for f in spec.facets)


def principal_divisor(spec: RingSpec, u) -> WeilDivisor:
    """Divisor of the monomial with exponent u: the vector of facet pairings."""
    if coefficients_of(spec.lattice, u) is None:
        raise ValueError(f"{tuple(u)} is not a lattice point of {spec.name}")
    return WeilDivisor(tuple(int(f.pairing(u)) for f in spec.facets))


def unit_region_halfspaces(spec: RingSpec):
    """H-form of {u : 0 <= facet_i(u) <= 1 for all i} in the ambient
    coordinates; bounded exactly when the cone is pointed."""
    hs = []
    for f in spec.facets:
        hs.append((tuple(-c for c in f.covector), Fraction(0)))
        hs.append((f.covector, Fraction(1)))
    return hs


def order_of_class(cg: ClassGroupData, c: ClassElement):
    """Least k >= 1 with k*c = 0, or None for elements of infinite order."""
    if any(c.free):
        return None
    order = 1
    for t, d in zip(c.torsion, cg.invariant_factors):
        order = math.lcm(order, d // math.gcd(t, d))
    return order


def divisorial_points(spec: RingSpec, divisor: WeilDivisor, box) -> list[tuple[int, ...]]:
    """Lattice points of the divisorial module R(D) inside a coordinate box.

    R(D) is spanned by the monomials u in L with facet_i(u) >= -a_i; the box
    is one half-open (lo, hi) pair per coordinate.
    """
    if len(divisor) != spec.num_facets:
        raise ValueError("divisor length does not match facet count")
    if len(box) != spec.dim:
        raise ValueError("box must give one (lo, hi) pair per coordinate")
    ranges = [range(int(lo), int(hi)) for lo, hi in box]
    out = []
    for u in itertools.product(*ranges):
        if coefficients_of(spec.lattice, u) is None:
            continue
        if all(
            f.pairing(u) >= -a for f, a in zip(spec.facets, divisor.coeffs)
        ):
            out.append(u)
    return out


def listed_cosets(blocks, q: int):
    """The cosets of the ``coset_rows`` blocks ``blocks`` at q, one at a
    time, as pairs (representative, summand divisor): c.B/q as a tuple of
    Fractions, and the WeilDivisor of its floors."""
    for numerators, runs in blocks:
        columns = [
            map(Fraction, range(start, start + q * step, step) if step
                else itertools.repeat(start, q), itertools.repeat(q))
            for start, step in numerators
        ]
        divisors = (WeilDivisor(floors) for n, floors in runs for _ in range(n))
        yield from zip(zip(*columns), divisors)


def cokernel_invariants(a: IntMat) -> tuple[int, list[int]]:
    """Structure of Z^rows modulo the column span of ``a``.

    Returns (free_rank, invariant_factors) with the factors > 1 and in
    divisibility order; unit factors are dropped.
    """
    diag = smith_normal_form(a).diagonal()
    nonzero = [d for d in diag if d]
    free_rank = a.rows - len(nonzero)
    return free_rank, [d for d in nonzero if d > 1]


def singh_determinantal_signature(s: int, d: int) -> Fraction:
    """Singh's closed form for the F-signature of generic determinantal
    rings (Singh, JPAA 2005):
    (1/d!) * sum_{i=0}^{s} (-1)^i * C(d+1, i) * (s-i)^d."""
    if s < 1 or d < 1:
        raise ValueError("need s >= 1 and d >= 1")
    total = sum((-1) ** i * math.comb(d + 1, i) * (s - i) ** d for i in range(s + 1))
    return Fraction(total, math.factorial(d))


def dump_ring_file(spec: RingSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ring_to_dict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


class ClassConvergenceRow(Record):
    torsion_coords: tuple[int, ...]
    first_e_with_summand: int | None
    terms: tuple[tuple[int, int, int, Fraction], ...]  # (e, q, count, ratio)
    final_deviation: Fraction | None


class ClassConvergenceTable(Record):
    ring: str
    p: int
    exact_signature: Fraction
    rows: tuple[ClassConvergenceRow, ...]

    @property
    def max_final_deviation(self) -> Fraction | None:
        devs = [r.final_deviation for r in self.rows if r.final_deviation is not None]
        return max(devs) if devs else None


def verify_per_class_convergence(
    spec: RingSpec, p: int, e_max: int, cap: int | None = None
) -> ClassConvergenceTable:
    """Summand densities per torsion class against the exact signature.

    Each torsion class eventually shows up among the summands of F^e_* R and
    its density tends to the signature; the table records the counts, the
    first e where each class appears, and the deviation at the largest e.
    """
    cg = class_group(spec)
    classes = torsion_elements(cg, cap)
    exact = exact_signature_volume(spec)
    decs = []
    for e in range(1, e_max + 1):
        ctx = FrobeniusContext(p, e)
        decs.append(
            decompose(spec, WeilDivisor((0,) * spec.num_facets), ctx, cap=cap)
        )
    rows = []
    for c in classes:
        terms = []
        first_e = None
        for dec in decs:
            count = multiplicity_of(dec, c)
            if count >= 1 and first_e is None:
                first_e = dec.ctx.e
            terms.append((dec.ctx.e, dec.ctx.q, count, Fraction(count, dec.rank)))
        final_dev = abs(terms[-1][3] - exact) if terms else None
        rows.append(
            ClassConvergenceRow(c.torsion, first_e, tuple(terms), final_dev)
        )
    return ClassConvergenceTable(spec.name, p, exact, tuple(rows))
