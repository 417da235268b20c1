"""F-signature: finite-level terms and the exact value.

The e-th term is s_e = a_e / q^d with a_e the number of summands of
F^e_* R in a chosen divisor class (the trivial class by default, giving the
free rank).  The exact limit never comes from truncating that sequence: it
is the volume of the region where every facet value lies in [0, 1], taken
in lattice coordinates and computed in exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from .caps import resolve_cap
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


def check_volume_dimension(spec: RingSpec) -> None:
    """Refuse a spec above ``VOLUME_DIM_LIMIT`` as bad input, before any
    work is spent on it."""
    if spec.dim > VOLUME_DIM_LIMIT:
        raise ValueError(
            f"exact volume supports dimension <= {VOLUME_DIM_LIMIT}, got {spec.dim}"
        )


def exact_signature_volume(spec: RingSpec, cap: int | None = None) -> Fraction:
    """Exact F-signature of a valid spec as a region volume.

    In lattice coordinates c the cosets contributing a free summand are the
    c/q with c in [0, q)^d and 0 <= Gc < q, so their density is the volume
    of P = {c : 0 <= Gc <= 1}, hence the limit of s_e; it is the volume of
    {u : 0 <= facet_i(u) <= 1} over the index of L in Z^d.  The double
    description of P counts its pair tests against the resolved cap.
    """
    cap = resolve_cap(cap)
    check_volume_dimension(spec)
    if not spec.unit_region(cap)[0]:
        raise RuntimeError("facet region is unbounded; spec is not pointed")
    return spec.unit_region_volume
