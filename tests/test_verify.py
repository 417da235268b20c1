import csv
import io
import itertools
import json
from fractions import Fraction as F

import pytest
from helpers import verify_per_class_convergence

from toricfsig.divisors import CapExceededError
from toricfsig.fsignature import signature_sequence
from toricfsig.rings import parse_builtin, ring_from_dict, validate
from toricfsig.verify import (
    default_corpus,
    report_to_csv,
    report_to_json,
    run_corpus,
    verify_ring,
    violation_bundle,
)


def test_verdict_equality_family():
    for n in (2, 4, 6):
        v = verify_ring(parse_builtin(f"an:{n}"), 2, 3)
        assert v.torsion_cardinality == n
        assert v.exact_signature == F(1, n)
        assert v.inequality_holds and v.equality
    for n in (3, 5):
        v = verify_ring(parse_builtin(f"veronese:{n}"), 3, 2)
        assert v.inequality_holds and v.equality
    for d in (1, 2):
        v = verify_ring(parse_builtin(f"poly:{d}"), 2, 2)
        assert v.torsion_cardinality == 1 and v.exact_signature == 1
        assert v.inequality_holds and v.equality


def test_verdict_strict_for_quadric():
    v = verify_ring(parse_builtin("quadric"), 2, 3)
    assert v.torsion_cardinality == 1
    assert v.exact_signature == F(2, 3)
    assert v.inequality_holds
    assert not v.equality  # 1 < 3/2


def test_witness_rows():
    v = verify_ring(parse_builtin("an:3"), 2, 4)
    assert [w.q for w in v.witnesses] == [2, 4, 8, 16]
    for w in v.witnesses:
        assert w.rank == w.q**2
        assert w.s_e == F(w.a_e, w.rank)
        assert w.n_e <= w.rank
        assert w.n_e == w.rank  # finite class group: all summands torsion
    vq = verify_ring(parse_builtin("quadric"), 2, 2)
    for w in vq.witnesses:
        assert w.n_e == w.a_e < w.rank


def test_witnesses_respect_q_max():
    v = verify_ring(parse_builtin("an:2"), 3, 10, q_max=30)
    assert [w.q for w in v.witnesses] == [3, 9, 27]


def test_witnesses_are_the_signature_sequence():
    # verify_ring takes its rows from signature_sequence, q_max included
    for token, p, e_max, q_max in [("quadric", 2, 3, None), ("an:2", 3, 10, 30),
                                   ("veronese:3", 5, 2, 4)]:
        spec = parse_builtin(token)
        rows = signature_sequence(spec, p, e_max, q_max=q_max)
        assert verify_ring(spec, p, e_max, q_max=q_max).witnesses == tuple(rows)
        assert all(w.q <= (q_max or w.q) for w in rows)
    assert signature_sequence(parse_builtin("an:2"), 5, 3, q_max=4) == []


def test_cap_error_carries_ring_context():
    with pytest.raises(CapExceededError) as err:
        verify_ring(parse_builtin("an:2"), 2, 3, cap=1)
    assert "an:2" in str(err.value)


def test_per_class_convergence_small():
    t = verify_per_class_convergence(parse_builtin("an:2"), 2, 1)
    assert t.exact_signature == F(1, 2)
    assert len(t.rows) == 2
    for row in t.rows:
        assert row.terms[-1][3] == F(1, 2)
        assert row.final_deviation == 0
        assert row.first_e_with_summand == 1


def test_per_class_convergence_polynomial():
    t = verify_per_class_convergence(parse_builtin("poly:2"), 3, 2)
    assert len(t.rows) == 1
    assert t.rows[0].final_deviation == 0
    assert t.max_final_deviation == 0


def test_per_class_convergence_an3():
    t = verify_per_class_convergence(parse_builtin("an:3"), 2, 4)
    assert t.max_final_deviation == F(1, 384)
    assert t.max_final_deviation <= F(9, 16)
    assert all(r.first_e_with_summand == 1 for r in t.rows)


def test_default_corpus_contents():
    names = [s.name for s in default_corpus()]
    assert names == sorted(names)
    assert "quadric" in names
    assert "poly:1" in names and "poly:3" in names
    assert {f"an:{n}" for n in range(2, 7)} <= set(names)
    assert {f"veronese:{n}" for n in range(2, 7)} <= set(names)
    assert len(names) == 14


def test_run_corpus_small_grid():
    report = run_corpus([2, 3], e_max=2)
    assert report.all_hold
    assert len(report.verdicts) == 28
    assert not report.errors
    by_ring = {(v.ring, v.p): v for v in report.verdicts}
    assert not by_ring[("quadric", 2)].equality
    assert by_ring[("an:4", 3)].equality


def test_run_corpus_empty_primes():
    report = run_corpus([], e_max=3)
    assert report.verdicts == ()
    assert report.all_hold and not report.errors


def test_run_corpus_cap_zero_collects_errors():
    report = run_corpus([2], e_max=1, cap=0)
    assert not report.verdicts
    assert len(report.errors) == 14
    assert all(e.kind == "cap" for e in report.errors)


def test_json_report_schema_and_round_trip():
    report = run_corpus([2], e_max=2)
    doc = json.loads(report_to_json(report))
    assert doc["all_hold"] is True
    assert doc["errors"] == []
    verdicts = doc["verdicts"]
    assert len(verdicts) == 14
    for v in verdicts:
        assert set(v) == {
            "ring",
            "p",
            "torsion_cardinality",
            "exact_signature",
            "reciprocal_signature",
            "inequality_holds",
            "equality",
            "witnesses",
            "ring_def",
        }
        for w in v["witnesses"]:
            assert set(w) == {"e", "q", "a_e", "s_e", "n_e", "rank"}
            assert F(w["s_e"]) == F(w["a_e"], w["rank"])
        # the embedded ring definition reproduces the same verdict
        spec = ring_from_dict(v["ring_def"])
        assert validate(spec) == []
        again = verify_ring(spec, v["p"], 2)
        assert again.torsion_cardinality == v["torsion_cardinality"]
        assert str(again.exact_signature) == v["exact_signature"]
        assert again.equality == v["equality"]


def test_json_report_deterministic():
    a = report_to_json(run_corpus([2], e_max=2))
    b = report_to_json(run_corpus([2], e_max=2))
    assert a == b


def test_csv_report():
    report = run_corpus([2], e_max=2)
    text = report_to_csv(report)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 14
    byname = {r["ring"]: r for r in rows}
    assert byname["an:2"]["exact_signature"] == "1/2"
    assert byname["an:2"]["equality"] == "True"
    assert byname["quadric"]["equality"] == "False"
    assert byname["quadric"]["inequality_holds"] == "True"


def test_violation_bundle_shape():
    # exercised on a healthy verdict: the bundle format itself must work
    spec = parse_builtin("an:2")
    verdict = verify_ring(spec, 2, 2)
    bundle = violation_bundle(verdict, spec)
    assert bundle["p"] == 2
    assert bundle["ring_def"]["name"] == "an:2"
    assert {d["e"] for d in bundle["coset_detail"]} == {1, 2}
    for block in bundle["coset_detail"]:
        assert all(set(c) == {"w", "divisor"} for c in block["cosets"])


@pytest.mark.parametrize("token, p, e_max", [("an:2", 2, 2), ("an:2", 3, 1), ("quadric", 2, 2),
                                             ("quadric", 3, 1)])
def test_violation_bundle_lists_every_coset(token, p, e_max):
    # at q <= 4, every c in [0, q)^d in lexicographic order, u = c.B: the
    # representative w = u/q and the divisor facet_i(u) // q, which is
    # (c.g_i + 0) // q
    spec = parse_builtin(token)
    basis_t = spec.lattice.basis.transpose()
    bundle = violation_bundle(verify_ring(spec, p, e_max), spec)
    assert [d["e"] for d in bundle["coset_detail"]] == list(range(1, e_max + 1))
    for detail in bundle["coset_detail"]:
        q = p ** detail["e"]
        points = map(basis_t.mul_vector, itertools.product(range(q), repeat=spec.dim))
        expected = [{"w": [str(F(x, q)) for x in u],
                     "divisor": [f.pairing(u) // q for f in spec.facets]} for u in points]
        assert detail["cosets"] == expected
