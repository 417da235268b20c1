"""F-signature: finite-level terms and exact values.

The e-th term is s_e = a_e / q^d with a_e the number of summands of
F^e_* R in a chosen divisor class (the trivial class by default, giving the
free rank).  The exact limit never comes from truncating that sequence: it
is either the volume of the region where every facet value lies in [0, 1],
taken in lattice coordinates, or Singh's determinantal closed form for the
size-(r, s) generic determinantal rings, both computed in exact rational
arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .divisors import WeilDivisor, class_group, class_of
from .frobenius import (
    FrobeniusContext,
    decompose,
    free_rank,
    multiplicity_of,
    simultaneous_torsion_count,
)
from .record import Record
from .rings import RingSpec

VOLUME_DIM_LIMIT = 4


class WitnessRow(Record):
    """One level e of ``signature_sequence``: a_e, s_e = a_e / rank, the
    count n_e of summands in torsion classes, and the rank q^d."""

    e: int
    q: int
    a_e: int
    s_e: Fraction
    n_e: int
    rank: int


class ExactFSignature(Record):
    value: Fraction
    method: str  # "polytope_volume" or "singh_formula"


def signature_sequence(
    spec: RingSpec,
    p: int,
    e_max: int,
    divisor: WeilDivisor | None = None,
    cap: int | None = None,
    q_max: int | None = None,
) -> list[WitnessRow]:
    """Terms s_e for e = 1..e_max, stopping before the first q above
    ``q_max`` when given.

    With a divisor D, a_e counts the summands of F^e_* R lying in the class
    of D; these terms converge to the same limit as the default free-rank
    sequence whenever D is torsion.
    """
    if e_max < 1:
        raise ValueError("e_max must be at least 1")
    target = None if divisor is None else class_of(class_group(spec), divisor)
    out = []
    for e in range(1, e_max + 1):
        ctx = FrobeniusContext(p, e)
        if q_max is not None and ctx.q > q_max:
            break
        dec = decompose(spec, WeilDivisor((0,) * spec.num_facets), ctx, cap=cap)
        a_e = free_rank(dec) if target is None else multiplicity_of(dec, target)
        n_e = simultaneous_torsion_count(dec)
        out.append(WitnessRow(e, ctx.q, a_e, Fraction(a_e, dec.rank), n_e, dec.rank))
    return out


def exact_signature_volume(spec: RingSpec) -> ExactFSignature:
    """Exact F-signature of a valid spec as a region volume.

    In lattice coordinates c the cosets contributing a free summand are the
    c/q with c in [0, q)^d and 0 <= Gc < q, so their density is the volume
    of P = {c : 0 <= Gc <= 1}, hence the limit of s_e; it is the volume of
    {u : 0 <= facet_i(u) <= 1} over the index of L in Z^d.
    """
    if spec.dim > VOLUME_DIM_LIMIT:
        raise ValueError(
            f"exact volume supports dimension <= {VOLUME_DIM_LIMIT}, got {spec.dim}"
        )
    if not spec.unit_region[0]:
        raise RuntimeError("facet region is unbounded; spec is not pointed")
    return ExactFSignature(value=spec.unit_region_volume, method="polytope_volume")


def singh_determinantal_signature(s: int, d: int) -> ExactFSignature:
    """Singh's closed form for generic determinantal rings:
    (1/d!) * sum_{i=0}^{s} (-1)^i * C(d+1, i) * (s-i)^d."""
    if s < 1 or d < 1:
        raise ValueError("need s >= 1 and d >= 1")
    total = sum(
        (-1) ** i * math.comb(d + 1, i) * (s - i) ** d for i in range(s + 1)
    )
    return ExactFSignature(
        value=Fraction(total, math.factorial(d)), method="singh_formula"
    )
