"""Weil divisors on the toric spectrum and the divisor class group.

Divisors are integer vectors indexed by the cone facets (the torus-invariant
height-one primes).  The class group is the cokernel of the principal-divisor
map, computed once per ring through a Smith normal form whose unimodular
certificate doubles as the projection onto normal-form coordinates.  Classes
are always kept in normal form, and ``ClassGroupData.reduce`` is the one
place that makes it, so that equality of classes is equality of tuples; the
Frobenius machinery counts summands by exactly this comparison.
"""

from __future__ import annotations

import itertools
import math
import operator

from .caps import check_cap, resolve_cap
from .linalg import IntMat, smith_normal_form
from .record import Record
from .rings import RingSpec


class WeilDivisor(Record):
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(map(int, self.coeffs)))

    def __len__(self):
        return len(self.coeffs)

    def __add__(self, other: "WeilDivisor") -> "WeilDivisor":
        if len(self) != len(other):
            raise ValueError("divisors live on different facet sets")
        return WeilDivisor(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "WeilDivisor") -> "WeilDivisor":
        return self + (-other)

    def __neg__(self) -> "WeilDivisor":
        return WeilDivisor(tuple(-a for a in self.coeffs))

    def __mul__(self, k: int) -> "WeilDivisor":
        return WeilDivisor(tuple(k * a for a in self.coeffs))

    __rmul__ = __mul__


class ClassElement(Record):
    """Class-group element in normal form: free coordinates over Z followed
    by torsion residues reduced into [0, d_i)."""

    free: tuple[int, ...]
    torsion: tuple[int, ...]

    def __init__(self, free: tuple[int, ...], torsion: tuple[int, ...]):
        # made by the thousand: skips Record's generic argument binding
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "torsion", torsion)

    @property
    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.torsion)


class ClassGroupData(Record):
    """Cl(R) = Z^free_rank + sum of Z/d_i, with the projection matrix taking
    a divisor coefficient vector to its normal-form coordinates (free rows
    first, then one row per invariant factor)."""

    free_rank: int
    invariant_factors: tuple[int, ...]
    projection: IntMat

    @property
    def torsion_cardinality(self) -> int:
        return math.prod(self.invariant_factors)

    def zero(self) -> ClassElement:
        return ClassElement(
            (0,) * self.free_rank, (0,) * len(self.invariant_factors)
        )

    def reduce(self, coords) -> ClassElement:
        """The class of one vector of projected coordinates, free rows
        first: the free coordinates as they are and the torsion ones
        reduced into [0, d_i)."""
        coords = tuple(coords)
        nfree = self.free_rank
        return ClassElement(
            coords[:nfree],
            tuple(t % d for t, d in zip(coords[nfree:], self.invariant_factors)),
        )

    def add(self, a: ClassElement, b: ClassElement) -> ClassElement:
        return self.reduce(map(operator.add, a.free + a.torsion, b.free + b.torsion))


def class_group(spec: RingSpec) -> ClassGroupData:
    """Divisor classes modulo principal divisors, computed once per spec
    (``RingSpec.class_group``)."""
    return spec.class_group


def class_group_of(g: IntMat) -> ClassGroupData:
    """The cokernel of a pairing matrix G, via its Smith normal form.

    The certificate row operations sort the coefficient space into killed
    coordinates (unit factors), cyclic coordinates, and free coordinates;
    keeping the corresponding rows of the certificate gives a projection with
    projection(principal divisor) = 0 by construction.
    """
    dec = smith_normal_form(g)
    diag = dec.diagonal()
    rank = sum(1 for d in diag if d)
    free_rows = list(range(rank, g.rows))
    torsion_rows = [i for i in range(rank) if diag[i] > 1]
    proj_rows = [dec.U.row(i) for i in free_rows + torsion_rows]
    projection = (
        IntMat.from_rows(proj_rows) if proj_rows else IntMat.zeros(0, g.rows)
    )
    return ClassGroupData(
        free_rank=len(free_rows),
        invariant_factors=tuple(diag[i] for i in torsion_rows),
        projection=projection,
    )


def class_of(cg: ClassGroupData, divisor: WeilDivisor) -> ClassElement:
    """Normal-form class of a divisor; a group homomorphism in the divisor."""
    return cg.reduce(cg.projection.mul_vector(divisor.coeffs))


def torsion_elements(cg: ClassGroupData, cap: int | None = None) -> list[ClassElement]:
    """All torsion classes, ordered lexicographically by residue tuple; their
    number is checked against the resolved cap."""
    check_cap(cg.torsion_cardinality, resolve_cap(cap), "torsion enumeration", "classes")
    zero_free = (0,) * cg.free_rank
    return [
        ClassElement(zero_free, residues)
        for residues in itertools.product(*(range(d) for d in cg.invariant_factors))
    ]
