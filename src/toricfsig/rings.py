"""Normal affine semigroup rings presented combinatorially.

A ring R = k[S] is specified by a full-rank lattice L inside Z^d together
with the facet functionals of a pointed full-dimensional rational cone C;
the semigroup is the set of lattice points of C.  Facets stand in for the
height-one primes, so membership tests and facet pairings are the only ring
theory ever needed.

Specs are immutable; the characteristic p is a computation parameter passed
to the Frobenius machinery, never part of the ring identity.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import cached_property

from .caps import resolve_cap
from .geometry import (
    _extreme_rays,
    dot,
    incidence_volume,
    integer_row,
    maximal,
    row_incidence,
    vertex_incidence,
)
from .linalg import IntMat
from .record import Record


class RingFormatError(ValueError):
    """Raised when a ring definition document cannot be parsed."""


class Lattice(Record):
    """Full-rank sublattice of Z^d, rows of ``basis`` are the generators."""

    basis: IntMat

    @property
    def dim(self) -> int:
        return self.basis.rows


class FacetFunctional(Record):
    """Rational covector cutting out one facet of the cone; integer-valued
    and primitive on the lattice for valid specs."""

    covector: tuple[Fraction, ...]

    def pairing(self, u) -> Fraction:
        if len(u) != len(self.covector):
            raise ValueError("dimension mismatch in facet pairing")
        return dot(self.covector, u)


class RingSpec(Record):
    name: str
    lattice: Lattice
    facets: tuple[FacetFunctional, ...]

    @property
    def dim(self) -> int:
        return self.lattice.dim

    @property
    def num_facets(self) -> int:
        return len(self.facets)

    # Everything derived from a spec is computed at most once per spec
    # object: cached_property and ``unit_region`` write the instance
    # __dict__, which neither equality, hashing nor repr reads.

    @cached_property
    def pairings(self) -> tuple[tuple, ...]:
        """The rows g_i of G, G[i][j] = facet_i(basis row j): ints, with a
        Fraction where a functional is not integer-valued on L, which only
        an invalid spec has.  Each facet pairs in integers, its covector
        scaled by the lcm of its denominators, and divides back."""
        basis = [self.lattice.basis.row(j) for j in range(self.dim)]
        rows = []
        for f in self.facets:
            scale = math.lcm(*(x.denominator for x in f.covector))
            ints = [x.numerator * (scale // x.denominator) for x in f.covector]
            sums = [sum(x * y for x, y in zip(ints, b, strict=True)) for b in basis]
            rows.append(tuple(Fraction(v, scale) if v % scale else v // scale for v in sums))
        return tuple(rows)

    @cached_property
    def class_group(self):
        """The ``ClassGroupData`` of the Smith form of G."""
        from .divisors import class_group_of  # divisors imports this module

        return class_group_of(pairing_matrix(self))

    def unit_region(self, cap: int | None = None):
        """``vertex_incidence`` of P = {c : 0 <= g_i.c <= 1} in lattice
        coordinates: halfspace 2i is g_i.c >= 0 and 2i + 1 is g_i.c <= 1.
        The exact volume, ``unit_region_vertices`` and the box oracle read
        it; ``validate`` answers its questions on the cone and never does.
        Its double description counts its pair tests against ``cap`` when
        given; once computed, the region is kept and costs no more work."""
        region = self.__dict__.get("_unit_region")
        if region is None:
            halfspaces = []
            for g in self.pairings:
                halfspaces += [(tuple(-x for x in g), 0), (g, 1)]
            region = self.__dict__["_unit_region"] = vertex_incidence(halfspaces, self.dim, cap)
        return region

    @cached_property
    def unit_region_volume(self) -> Fraction:
        """The volume of P in lattice coordinates, for a pointed cone."""
        return incidence_volume(self.unit_region(), self.dim)


def pairing_matrix(spec: RingSpec) -> IntMat:
    """Integer matrix G with G[i][j] = facet_i(basis row j).

    Columns are the principal divisors of the lattice basis, so the column
    span is the full group of principal divisors.
    """
    rows = spec.pairings
    if any(v.denominator != 1 for row in rows for v in row):
        raise ValueError("facet functional is not integer-valued on L")
    return IntMat(len(rows), spec.dim, tuple(itertools.chain.from_iterable(rows)))


def unit_region_vertices(spec: RingSpec):
    """The vertices of {u : 0 <= facet_i(u) <= 1}, sorted: those of P
    mapped from lattice coordinates by the basis."""
    basis_t = spec.lattice.basis.transpose()
    return tuple(sorted(
        tuple(Fraction(x, ray[-1]) for x in basis_t.mul_vector(ray[:-1]))
        for ray, _ in spec.unit_region()[0]
    ))


def validate(spec: RingSpec, cap: int | None = None) -> list[str]:
    """Check every well-formedness invariant; violations come back as data.

    An empty list means the ring description is a valid pointed
    full-dimensional cone over a full-rank lattice with primitive,
    irredundant, integer-valued facet functionals.  The double description
    of the cone counts its pair tests against the resolved cap.
    """
    cap = resolve_cap(cap)
    d = spec.dim
    if d < 1:
        return ["dimension must be at least 1"]
    if spec.lattice.basis.cols != d or spec.lattice.basis.det() == 0:
        return ["lattice basis not full rank"]
    for i, f in enumerate(spec.facets):
        if len(f.covector) != d:
            return [f"facet {i} has wrong dimension"]

    integral = [all(v.denominator == 1 for v in g) for g in spec.pairings]
    violations = [
        f"functional not integer-valued on L (facet {i})"
        for i, ok in enumerate(integral) if not ok
    ]
    # a content above 1 makes the functional a proper multiple of another
    # one that is still integer-valued on L
    violations += [
        f"functional not primitive on L (facet {i})"
        for i, g in enumerate(spec.pairings) if integral[i] and math.gcd(*g) != 1
    ]

    for i in range(len(spec.facets)):
        for j in range(i + 1, len(spec.facets)):
            if spec.facets[i].covector == spec.facets[j].covector:
                violations.append(f"duplicate facet ({i}, {j})")

    # the rays of C = {c : g_i.c >= 0}, from the rows of G scaled to integers
    rows = [integer_row(g) for g in spec.pairings]
    rays = _extreme_rays(rows, d - 1, cap)
    if rays is None:
        violations.append("cone not pointed")
        return violations
    tight = row_incidence(rays, len(rows))
    everything = (1 << len(rays)) - 1
    if not rays or any(t == everything and any(g) for t, g in zip(tight, rows)):
        violations.append("cone not full-dimensional")
        return violations
    # facet i is irredundant exactly when its ray set is a maximal proper
    # one among all the facets' ray sets, the empty set too: in d = 1 the
    # one facet is tight on no ray
    facets = maximal(set(tight) - {everything})
    violations += [f"redundant facet (facet {i})" for i, t in enumerate(tight)
                   if t not in facets]
    return violations


def _frac_row(entries):
    return tuple(Fraction(x) for x in entries)


def _coordinate_facets(d: int) -> tuple[FacetFunctional, ...]:
    return tuple(
        FacetFunctional(_frac_row(1 if i == j else 0 for i in range(d)))
        for j in range(d)
    )


_FAMILY_ALIASES = {
    "poly": "polynomial",
    "polynomial": "polynomial",
    "an": "an_singularity",
    "an_singularity": "an_singularity",
    "veronese": "veronese",
    "ver": "veronese",
    "quadric": "quadric_cone",
    "quadric_cone": "quadric_cone",
}


def parse_builtin(token: str) -> RingSpec:
    """Build a built-in ring from its address: an:4, veronese:3, poly:2, quadric.

    poly:d          polynomial(d), L = Z^d, coordinate facets.
    an:n            an_singularity(n), k[x,y,z]/(xy - z^n) as the monomial
                    ring k[x^n, xy, y^n]; exponent lattice a = b mod n.
    veronese:n      n-th Veronese of k[x,y]; exponent lattice a + b = 0 mod n.
    quadric         quadric_cone, k[w,x,y,z]/(wx - yz), the Segre cone in Z^3.

    Builtins are valid by construction, so they are never passed to
    ``validate``; the tests validate every family.
    """
    name, _, arg = token.partition(":")
    family = _FAMILY_ALIASES.get(name.strip())
    if family is None:
        raise ValueError(f"unknown builtin ring {token!r}")
    try:
        params = tuple(int(x) for x in arg.split(",")) if arg else ()
    except ValueError:
        raise ValueError(f"bad parameters in builtin ring {token!r}") from None
    if family == "quadric_cone":
        if params:
            raise ValueError(f"builtin ring {token!r} takes no parameters")
        extra = FacetFunctional(_frac_row((1, 1, -1)))
        return RingSpec("quadric", Lattice(IntMat.identity(3)), _coordinate_facets(3) + (extra,))
    if len(params) != 1:
        raise ValueError(f"builtin ring {token!r} needs exactly one parameter")
    (n,) = params
    if family == "polynomial":
        if n < 1:
            raise ValueError("polynomial ring needs dimension >= 1")
        return RingSpec(f"poly:{n}", Lattice(IntMat.identity(n)), _coordinate_facets(n))
    if n < 2:
        raise ValueError(f"{family} needs n >= 2")
    an = family == "an_singularity"
    return RingSpec(
        f"{'an' if an else 'veronese'}:{n}",
        Lattice(IntMat.from_rows([[1, 1 if an else n - 1], [0, n]])),
        _coordinate_facets(2),
    )


def ring_to_dict(spec: RingSpec) -> dict:
    """Plain-data form of a spec, the on-disk ring definition format."""
    return {
        "name": spec.name,
        "dim": spec.dim,
        "lattice_basis": spec.lattice.basis.to_rows(),
        "facets": [[str(c) for c in f.covector] for f in spec.facets],
    }


def _integer(x, what: str) -> int:
    """An integer JSON number or integer string; int() alone would truncate
    1.5 to 1 and read true as 1."""
    if isinstance(x, bool) or (isinstance(x, float) and not x.is_integer()):
        raise RingFormatError(f"{what} must be an integer, got {x!r}")
    return int(x)


def ring_from_dict(data: dict) -> RingSpec:
    try:
        name = str(data["name"])
        d = _integer(data["dim"], "dim")
        basis_rows = data["lattice_basis"]
        facet_rows = data["facets"]
        if len(basis_rows) != d or any(len(r) != d for r in basis_rows):
            raise RingFormatError("lattice_basis must be a d-by-d integer matrix")
        basis = IntMat.from_rows(
            [[_integer(x, "lattice_basis entry") for x in r] for r in basis_rows]
        )
        facets = []
        for r in facet_rows:
            if len(r) != d:
                raise RingFormatError("facet covector has wrong length")
            facets.append(FacetFunctional(tuple(Fraction(str(x)) for x in r)))
    except RingFormatError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise RingFormatError(f"malformed ring definition: {exc}") from exc
    return RingSpec(name=name, lattice=Lattice(basis), facets=tuple(facets))


def load_ring_file(path: str) -> RingSpec:
    """Read a JSON ring definition; validity is the caller's concern.  A file
    that is not UTF-8, or nests deeper than the parser's recursion, is a
    format error like any other unreadable document."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise RingFormatError(f"cannot read ring file {path}: {exc}") from exc
    return ring_from_dict(data)


def is_prime(p: int) -> bool:
    """Primality of p < 2^64 by Miller-Rabin over the prime bases up to 37,
    which is deterministic below 3.18 * 10^23; larger p are refused, since
    no enumeration at such a characteristic can finish."""
    if p >= 1 << 64:
        raise ValueError(f"p = {p} is too large; p must be below 2^64")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2:
        return False
    if p in bases:
        return True
    if any(p % b == 0 for b in bases):
        return False
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s, d odd
    d = (p - 1) >> s
    for b in bases:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True
