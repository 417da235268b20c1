"""Independent correctness checks on the CLI outputs of one pass.

Each check takes the command and its stdout and returns a list of problems
(empty when the output is right).  They run in the benchmark process on the
library imported from the checkout, outside the timed passes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from toricfsig import (
    FrobeniusContext,
    WeilDivisor,
    class_group,
    class_of,
    decompose,
    frobenius,
    load_ring_file,
    parse_builtin,
    smith_normal_form,
    validate,
)
from toricfsig.rings import pairing_matrix, ring_from_dict

ORACLE_Q_MAX = 128


def _classes(summands) -> dict[tuple, int]:
    return {(tuple(s["free"]), tuple(s["torsion"])): s["multiplicity"] for s in summands}


def _tally(dec) -> dict[tuple, int]:
    return {(c.free, c.torsion): n for c, n in dec.summands.items()}


def _spec_of(cmd):
    """The ring a command ran on, from its --builtin or --ring argument."""
    if "--ring" in cmd.argv:
        return load_ring_file(cmd.argv[cmd.argv.index("--ring") + 1])
    return parse_builtin(cmd.argv[cmd.argv.index("--builtin") + 1])


def _oracle_problems(label: str, spec, p: int, witnesses) -> list[str]:
    """a_e equals the box oracle, an independent lattice-point count."""
    problems = []
    for w in witnesses:
        if w["q"] <= ORACLE_Q_MAX:
            oracle = frobenius.box_count_oracle(spec, FrobeniusContext(p, w["e"]))
            if oracle != w["a_e"]:
                problems.append(f"{label} q={w['q']}: a_e={w['a_e']} but oracle={oracle}")
    return problems


def _expected_corpus_verdict(name: str):
    """(torsion, s) of the builtin families, from the paper."""
    family, _, n = name.partition(":")
    if family in ("an", "veronese"):
        return int(n), Fraction(1, int(n))
    if family == "quadric":
        return 1, Fraction(2, 3)
    if family == "poly":
        return 1, Fraction(1)
    return None


def check_builtin_verify(cmd, out: bytes) -> list[str]:
    """all_hold; known torsion and s for every family; quadric class group
    is Z; rank q^d per witness; a_e equals the box oracle for q <= 128."""
    doc = json.loads(out)
    problems = []
    if doc["all_hold"] is not True or doc["errors"]:
        problems.append(f"all_hold={doc['all_hold']} errors={doc['errors']}")
    for v in doc["verdicts"]:
        spec = ring_from_dict(v["ring_def"])
        want = _expected_corpus_verdict(v["ring"])
        got = (v["torsion_cardinality"], Fraction(v["exact_signature"]))
        if want is None or got != want:
            problems.append(f"{v['ring']}: (torsion, s) = {got}, expected {want}")
        if v["ring"] == "quadric":
            cg = class_group(spec)
            if (cg.free_rank, cg.invariant_factors) != (1, ()):
                problems.append(f"quadric class group is not Z: {cg}")
        for w in v["witnesses"]:
            q = w["q"]
            if w["rank"] != q**spec.dim or Fraction(w["s_e"]) != Fraction(w["a_e"], w["rank"]):
                problems.append(f"{v['ring']} q={q}: bad witness row {w}")
        problems += _oracle_problems(v["ring"], spec, v["p"], v["witnesses"])
    return problems


def check_summands(cmd, out: bytes) -> list[str]:
    """Multiplicities sum to q^d, one class per key."""
    doc = json.loads(out)
    spec = _spec_of(cmd)
    total = sum(s["multiplicity"] for s in doc["summands"])
    if doc["rank"] != doc["q"] ** spec.dim or total != doc["rank"]:
        return [f"multiplicities sum to {total}, rank {doc['rank']}, q^d {doc['q'] ** spec.dim}"]
    if len(_classes(doc["summands"])) != len(doc["summands"]):
        return ["repeated class in summands"]
    return []


def check_fsig(cmd, out: bytes) -> list[str]:
    """One row per e with a_e <= q^d and s_e = a_e / q^d."""
    doc = json.loads(out)
    spec = _spec_of(cmd)
    e_max = int(cmd.argv[cmd.argv.index("-e") + 1])
    rows = doc["sequence"]
    problems = [] if len(rows) == e_max else [f"{len(rows)} rows for e_max={e_max}"]
    for r in rows:
        rank = r["q"] ** spec.dim
        if not 0 <= r["a_e"] <= rank or Fraction(r["s_e"]) != Fraction(r["a_e"], rank):
            problems.append(f"bad sequence row {r}")
    return problems


def check_twist(cmd, out: bytes) -> list[str]:
    """decompose(qk + r) is decompose(r), on the int64 path since 0 <= r < q,
    shifted by class_of(k)."""
    doc = json.loads(out)
    spec = _spec_of(cmd)
    q = doc["q"]
    k = WeilDivisor(tuple(a // q for a in doc["divisor"]))
    r = WeilDivisor(tuple(a % q for a in doc["divisor"]))
    cg = class_group(spec)
    shift = class_of(cg, k)
    base = decompose(spec, r, FrobeniusContext(doc["p"], doc["e"]))
    want = {}
    for c, n in base.summands.items():
        moved = cg.add(c, shift)
        want[(moved.free, moved.torsion)] = n
    got = _classes(doc["summands"])
    return [] if got == want else [f"twist identity fails: {got} != {want}"]


def check_detail(cmd, out: bytes) -> list[str]:
    """q^d cosets; their per-class tally equals the summands printed and the
    summands of the non-detail decomposition."""
    doc = json.loads(out)
    spec = _spec_of(cmd)
    cg = class_group(spec)
    tally: dict[tuple, int] = {}
    for row in doc["cosets"]:
        c = class_of(cg, WeilDivisor(tuple(row["divisor"])))
        tally[(c.free, c.torsion)] = tally.get((c.free, c.torsion), 0) + 1
    plain = _tally(decompose(spec, WeilDivisor(tuple(doc["divisor"])),
                             FrobeniusContext(doc["p"], doc["e"])))
    problems = []
    if len(doc["cosets"]) != doc["q"] ** spec.dim:
        problems.append(f"{len(doc['cosets'])} cosets, expected q^d")
    if tally != plain or _classes(doc["summands"]) != plain:
        problems.append("detail tally differs from the non-detail summands")
    return problems


def check_ring_classgroup(cmd, out: bytes) -> list[str]:
    """validate == []; the Smith certificate U G V = S with U, V unimodular,
    and the projection kills G; the printed group matches S; free rank >= 2
    and non-cyclic torsion as generated."""
    doc = json.loads(out)
    spec = _spec_of(cmd)
    problems = [f"validate: {p}" for p in validate(spec)]
    g = pairing_matrix(spec)
    snf = smith_normal_form(g)
    if snf.U @ g @ snf.V != snf.S or not (snf.U.is_unimodular() and snf.V.is_unimodular()):
        problems.append("Smith certificate does not give U G V = S")
    cg = class_group(spec)
    if cg.projection.rows:  # free rows kill G, torsion rows kill it mod d_i
        mods = (0,) * cg.free_rank + cg.invariant_factors
        killed = cg.projection @ g
        if any(x % m if m else x for i, m in enumerate(mods) for x in killed.row(i)):
            problems.append("class projection does not kill G")
    diag = [d for d in snf.diagonal() if d]
    want = (g.rows - len(diag), [d for d in diag if d > 1])
    got = (doc["free_rank"], doc["invariant_factors"])
    if got != want:
        problems.append(f"class group {got}, Smith form gives {want}")
    if doc["free_rank"] < 2 or len(doc["invariant_factors"]) < 2:
        problems.append(f"generated ring lost its shape: {got}")
    return problems


def check_ring_verify(cmd, out: bytes) -> list[str]:
    """|tors| * s <= 1 in exact rationals, the torsion of the class group,
    witness rows with rank q^d, and a_e equal to the box oracle."""
    doc = json.loads(out)
    spec = _spec_of(cmd)
    cg = class_group(spec)
    problems = [] if doc["all_hold"] and not doc["errors"] else [f"errors {doc['errors']}"]
    for v in doc["verdicts"]:
        product = v["torsion_cardinality"] * Fraction(v["exact_signature"])
        if product > 1 or v["inequality_holds"] is not True:
            problems.append(f"p={v['p']}: |tors| * s = {product}")
        if v["torsion_cardinality"] != cg.torsion_cardinality:
            problems.append(f"p={v['p']}: torsion {v['torsion_cardinality']}")
        for w in v["witnesses"]:
            if w["rank"] != w["q"] ** spec.dim or not 0 <= w["n_e"] <= w["rank"]:
                problems.append(f"p={v['p']}: bad witness row {w}")
        problems += _oracle_problems(f"p={v['p']}", spec, v["p"], v["witnesses"])
    return problems


CHECKS = {
    "builtin_verify": check_builtin_verify,
    "summands": check_summands,
    "fsig": check_fsig,
    "twist": check_twist,
    "detail": check_detail,
    "ring_classgroup": check_ring_classgroup,
    "ring_verify": check_ring_verify,
}


def run_check(cmd, out: bytes) -> list[str]:
    if cmd.check is None:
        return []
    try:
        return CHECKS[cmd.check](cmd, out)
    except (ValueError, KeyError, TypeError) as exc:  # unparsable output
        return [f"{cmd.check}: {type(exc).__name__}: {exc}"]
