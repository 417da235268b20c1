"""Corpus verification of the torsion bound |tors Cl(R)| <= 1/s(R).

Every ring gets an exact verdict: the torsion cardinality comes from the
Smith normal form, the signature from the region volume, and the inequality
is evaluated in rational arithmetic, never from truncated sequences.  The
finite-level decompositions ride along as witnesses: per e the free rank
a_e, the term s_e, and the simultaneous count n_e of summands in torsion
classes, which can never exceed the rank q^d.

A failed inequality would mean a bug, not mathematics, so the reporting
treats it as a distinguished hard failure with a reproduction bundle.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction

from .caps import CapExceededError
from .divisors import WeilDivisor, class_group
from .frobenius import (
    FrobeniusContext,
    coset_rows,
    decompose,
    free_rank,
    simultaneous_torsion_count,
)
from .fsignature import exact_signature_volume
from .record import Record
from .rings import RingSpec, parse_builtin, ring_to_dict


class WitnessRow(Record):
    e: int
    q: int
    a_e: int
    s_e: Fraction
    n_e: int
    rank: int


class TheoremVerdict(Record):
    ring: str
    p: int
    torsion_cardinality: int
    exact_signature: Fraction
    inequality_holds: bool
    equality: bool
    witnesses: tuple[WitnessRow, ...]
    ring_def: dict


def verify_ring(
    spec: RingSpec,
    p: int,
    e_max: int,
    q_max: int | None = None,
    cap: int | None = None,
) -> TheoremVerdict:
    """Exact verdict for one ring at one characteristic.

    Witness rows cover e = 1..e_max, skipping q above ``q_max`` when given;
    enumeration-cap overruns propagate with the ring named.
    """
    torsion = class_group(spec).torsion_cardinality
    exact = exact_signature_volume(spec).value
    witnesses = []
    try:
        for e in range(1, e_max + 1):
            ctx = FrobeniusContext(p, e)
            if q_max is not None and ctx.q > q_max:
                break
            dec = decompose(
                spec, WeilDivisor((0,) * spec.num_facets), ctx, cap=cap
            )
            a_e = free_rank(dec)
            n_e = simultaneous_torsion_count(dec)
            witnesses.append(
                WitnessRow(e, ctx.q, a_e, Fraction(a_e, dec.rank), n_e, dec.rank)
            )
    except CapExceededError as exc:
        raise CapExceededError(f"{spec.name} (p={p}): {exc}") from exc
    product = torsion * exact
    return TheoremVerdict(
        ring=spec.name,
        p=p,
        torsion_cardinality=torsion,
        exact_signature=exact,
        inequality_holds=product <= 1,
        equality=product == 1,
        witnesses=tuple(witnesses),
        ring_def=ring_to_dict(spec),
    )


def default_corpus() -> list[RingSpec]:
    """The built-in rings the verifier sweeps by default."""
    addresses = ["poly:1", "poly:2", "poly:3", "quadric"]
    addresses += [f"{family}:{n}" for family in ("an", "veronese") for n in range(2, 7)]
    return sorted(map(parse_builtin, addresses), key=lambda s: s.name)


class CorpusError(Record):
    ring: str
    p: int
    kind: str  # "cap" or "error"
    message: str


class CorpusReport(Record):
    verdicts: tuple[TheoremVerdict, ...]
    errors: tuple[CorpusError, ...]

    @property
    def all_hold(self) -> bool:
        return all(v.inequality_holds for v in self.verdicts)


def run_corpus(
    ps,
    e_max: int,
    rings: list[RingSpec] | None = None,
    q_max: int | None = 256,
    cap: int | None = None,
) -> CorpusReport:
    """verify_ring over a parameter grid; per-ring failures are collected
    and the sweep continues, ring by ring in name order."""
    if rings is None:
        rings = default_corpus()
    rings = sorted(rings, key=lambda s: s.name)
    verdicts = []
    errors = []
    for spec in rings:
        for p in ps:
            try:
                verdicts.append(verify_ring(spec, p, e_max, q_max=q_max, cap=cap))
            except CapExceededError as exc:
                errors.append(CorpusError(spec.name, p, "cap", str(exc)))
            except (ValueError, RuntimeError) as exc:
                errors.append(CorpusError(spec.name, p, "error", str(exc)))
    return CorpusReport(tuple(verdicts), tuple(errors))


def witness_to_dict(w: WitnessRow) -> dict:
    return {
        "e": w.e,
        "q": w.q,
        "a_e": w.a_e,
        "s_e": str(w.s_e),
        "n_e": w.n_e,
        "rank": w.rank,
    }


def verdict_to_dict(v: TheoremVerdict) -> dict:
    return {
        "ring": v.ring,
        "p": v.p,
        "torsion_cardinality": v.torsion_cardinality,
        "exact_signature": str(v.exact_signature),
        "reciprocal_signature": str(1 / v.exact_signature),
        "inequality_holds": v.inequality_holds,
        "equality": v.equality,
        "witnesses": [witness_to_dict(w) for w in v.witnesses],
        "ring_def": v.ring_def,
    }


def report_to_json(report: CorpusReport) -> str:
    doc = {
        "all_hold": report.all_hold,
        "verdicts": [verdict_to_dict(v) for v in report.verdicts],
        "errors": [
            {"ring": e.ring, "p": e.p, "kind": e.kind, "message": e.message}
            for e in report.errors
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def csv_text(header, rows) -> str:
    """CSV of a header and rows, a field quoted only where it holds a comma,
    a double quote or a line break."""
    import csv  # here, not at the top: only --format csv needs it

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


def report_to_csv(report: CorpusReport) -> str:
    header = "ring,p,torsion_cardinality,exact_signature,inequality_holds,equality,max_q"
    rows = [
        (v.ring, v.p, v.torsion_cardinality, v.exact_signature, v.inequality_holds,
         v.equality, max((w.q for w in v.witnesses), default=""))
        for v in report.verdicts
    ]
    return csv_text(header.split(","), rows)


def violation_bundle(verdict: TheoremVerdict, spec: RingSpec) -> dict:
    """Everything needed to reproduce a failed inequality: the ring, the
    characteristic, the witness table, and per-coset detail when small."""
    bundle = {
        "verdict": verdict_to_dict(verdict),
        "ring_def": ring_to_dict(spec),
        "p": verdict.p,
    }
    detail_rows = []
    for w in verdict.witnesses:
        if w.rank > 4096:
            continue
        rows = coset_rows(
            spec, WeilDivisor((0,) * spec.num_facets), FrobeniusContext(verdict.p, w.e)
        )
        detail_rows.append(
            {
                "e": w.e,
                "cosets": [
                    {"w": [str(x) for x in rep], "divisor": list(div.coeffs)}
                    for rep, div in rows
                ],
            }
        )
    bundle["coset_detail"] = detail_rows
    return bundle
