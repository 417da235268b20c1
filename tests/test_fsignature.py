import contextlib
import io
import json
from fractions import Fraction as F

import pytest

from toricfsig.cli import main
from toricfsig.divisors import WeilDivisor, class_group
from toricfsig.frobenius import FrobeniusContext, decompose, free_rank
from toricfsig.fsignature import (
    exact_signature_volume,
    signature_sequence,
    singh_determinantal_signature,
)
from toricfsig.rings import parse_builtin


def test_exact_volume_values():
    for n in range(2, 7):
        assert exact_signature_volume(parse_builtin(f"an:{n}")).value == F(1, n)
        assert exact_signature_volume(parse_builtin(f"veronese:{n}")).value == F(1, n)
    for d in (1, 2, 3):
        assert exact_signature_volume(parse_builtin(f"poly:{d}")).value == 1
    quadric = exact_signature_volume(parse_builtin("quadric"))
    assert quadric.value == F(2, 3)
    assert quadric.method == "polytope_volume"


def test_singh_formula():
    assert singh_determinantal_signature(2, 3).value == F(2, 3)
    assert singh_determinantal_signature(1, 1).value == 1
    assert singh_determinantal_signature(2, 3).method == "singh_formula"
    # 2x2 minors of a generic 3x3 matrix: alternating sum gives 11/20
    assert singh_determinantal_signature(3, 5).value == F(11, 20)
    with pytest.raises(ValueError):
        singh_determinantal_signature(0, 3)
    with pytest.raises(ValueError):
        singh_determinantal_signature(2, 0)


def test_singh_matches_quadric_volume():
    assert (
        singh_determinantal_signature(2, 3).value
        == exact_signature_volume(parse_builtin("quadric")).value
    )


def test_sequences_an2():
    seq = signature_sequence(parse_builtin("an:2"), 2, 3)
    assert [(est.ctx.q, est.s_e) for est in seq] == [
        (2, F(1, 2)),
        (4, F(1, 2)),
        (8, F(1, 2)),
    ]
    seq3 = signature_sequence(parse_builtin("an:2"), 3, 1)
    assert seq3[0].a_e == 5
    assert seq3[0].s_e == F(5, 9)


def test_sequences_polynomial():
    seq = signature_sequence(parse_builtin("poly:2"), 2, 3)
    assert all(est.s_e == 1 for est in seq)


def test_sequence_bounds():
    for token in ["an:3", "veronese:4", "quadric"]:
        for est in signature_sequence(parse_builtin(token), 2, 3):
            assert 0 < est.s_e <= 1


def test_sequence_with_divisor_counts_class_multiplicity():
    # the divisor-twisted count equals the free rank of the decomposition
    # with base divisor -q*D
    spec = parse_builtin("an:3")
    d = WeilDivisor((1, 0))
    cg = class_group(spec)
    for p, e_max in [(2, 4), (3, 3)]:
        seq = signature_sequence(spec, p, e_max, divisor=d)
        for est in seq:
            ctx = est.ctx
            twisted = decompose(spec, -ctx.q * d, ctx)
            zero_mult = twisted.summands.get(cg.zero(), 0)
            assert est.a_e == zero_mult


def test_divisor_and_free_sequences_approach_each_other():
    spec = parse_builtin("an:3")
    seq_d = signature_sequence(spec, 2, 6, divisor=WeilDivisor((1, 0)))
    seq_0 = signature_sequence(spec, 2, 6)
    diffs = [abs(a.s_e - b.s_e) for a, b in zip(seq_d, seq_0)]
    assert all(x >= y for x, y in zip(diffs, diffs[1:]))
    assert diffs[-1] < diffs[0]


def test_volume_dimension_guard():
    with pytest.raises(ValueError):
        exact_signature_volume(parse_builtin("poly:5"))


def _fsig(*argv):
    """Exit code and stdout of the ``fsig`` command run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["fsig", *argv])
    return code, out.getvalue()


def test_convergence_report_exact_deviations():
    # s_e of an:2 at p = 2 is exactly the limit at every e
    spec = parse_builtin("an:2")
    exact = exact_signature_volume(spec)
    assert all(est.s_e == exact.value for est in signature_sequence(spec, 2, 3))
    code, out = _fsig("--builtin", "an:2", "-p", "2", "-e", "3", "--exact")
    assert code == 0
    assert out.count("|s_e-s|=0 (~0)\n") == 3


def test_convergence_report_envelope_values():
    spec = parse_builtin("an:2")
    exact = exact_signature_volume(spec)
    (est,) = signature_sequence(spec, 3, 1)
    assert abs(est.s_e - exact.value) == F(1, 18)
    code, out = _fsig("--builtin", "an:2", "-p", "3", "-e", "1", "--exact")
    assert code == 0
    assert "  e=1  q=3  a_e=5  s_e=5/9  |s_e-s|=1/18 (~0.0556)\n" in out


def test_convergence_report_without_exact():
    # without --exact there is nothing to deviate from
    code, out = _fsig("--builtin", "an:3", "-p", "2", "-e", "2")
    assert code == 0
    assert out.count("  e=") == 2
    assert "|s_e-s|" not in out and "exact F-signature" not in out
    code, out = _fsig("--builtin", "an:3", "-p", "2", "-e", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["sequence"]) == 2
    assert doc["exact"] is None and doc["method"] is None


def test_volume_agrees_with_counts_at_large_q():
    # coarse numeric sanity: s_e should be near the exact volume by q = 64
    for token in ["an:3", "veronese:5", "quadric"]:
        spec = parse_builtin(token)
        exact = exact_signature_volume(spec).value
        e = 6 if spec.dim == 2 else 5
        ctx = FrobeniusContext(2, e)
        dec = decompose(spec, WeilDivisor((0,) * spec.num_facets), ctx)
        s_e = F(free_rank(dec), dec.rank)
        assert abs(s_e - exact) < F(1, 10)
