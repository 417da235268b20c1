import itertools
import math
import random
from fractions import Fraction as F

import pytest
from helpers import coefficients_of, listed_cosets

from toricfsig.divisors import (
    CapExceededError,
    ClassElement,
    WeilDivisor,
    class_group,
    class_of,
    torsion_elements,
)
from toricfsig.frobenius import (
    FrobeniusContext,
    box_count_oracle,
    coset_rows,
    decompose,
    free_rank,
    multiplicity_of,
    simultaneous_torsion_count,
)
from toricfsig import frobenius
from toricfsig.geometry import solve_square
from toricfsig.linalg import IntMat
from toricfsig.rings import (
    FacetFunctional,
    Lattice,
    RingSpec,
    pairing_matrix,
    parse_builtin,
    ring_from_dict,
    unit_region_vertices,
    validate,
)

CORPUS = (
    ["poly:1", "poly:2", "poly:3", "quadric"]
    + [f"an:{n}" for n in range(2, 7)]
    + [f"veronese:{n}" for n in range(2, 7)]
)


def zero_divisor(spec):
    return WeilDivisor((0,) * spec.num_facets)


def test_context_validation():
    ctx = FrobeniusContext(3, 4)
    assert ctx.q == 81
    with pytest.raises(ValueError):
        FrobeniusContext(4, 1)
    with pytest.raises(ValueError):
        FrobeniusContext(2, 0)


def test_quadric_cone_coset_count_hand_enumeration():
    # the four cosets of 2Z^2... for the xy = z^2 ring at q = 2: reps
    # (0,0), (1/2,1/2), (0,1), (1/2,3/2); the first two give the trivial
    # summand, the last two the nontrivial class
    spec = parse_builtin("an:2")
    dec = decompose(spec, zero_divisor(spec), FrobeniusContext(2, 1))
    rows = list(listed_cosets(coset_rows(spec, zero_divisor(spec), FrobeniusContext(2, 1)), 2))
    reps = {w for w, _ in rows}
    assert reps == {
        (F(0), F(0)),
        (F(1, 2), F(1, 2)),
        (F(0), F(1)),
        (F(1, 2), F(3, 2)),
    }
    summand_by_rep = {w: d.coeffs for w, d in rows}
    assert summand_by_rep[(F(0), F(0))] == (0, 0)
    assert summand_by_rep[(F(1, 2), F(1, 2))] == (0, 0)
    assert summand_by_rep[(F(0), F(1))] == (0, 1)
    assert summand_by_rep[(F(1, 2), F(3, 2))] == (0, 1)
    counts = {c.torsion: n for c, n in dec.summands.items()}
    assert counts == {(0,): 2, (1,): 2}
    assert free_rank(dec) == 2


def test_an2_p3_free_rank():
    # pairs (a, b) with a, b < 3 and a = b mod 2:
    # (0,0), (0,2), (1,1), (2,0), (2,2)
    spec = parse_builtin("an:2")
    ctx = FrobeniusContext(3, 1)
    dec = decompose(spec, zero_divisor(spec), ctx)
    assert free_rank(dec) == 5
    assert box_count_oracle(spec, ctx) == 5


def test_polynomial_ring_decomposes_freely():
    for d in (1, 2, 3):
        spec = parse_builtin(f"poly:{d}")
        for p, e in [(2, 1), (2, 3), (3, 2), (5, 1)]:
            ctx = FrobeniusContext(p, e)
            dec = decompose(spec, zero_divisor(spec), ctx)
            cg = class_group(spec)
            assert dec.summands == {cg.zero(): ctx.q**d}
            assert free_rank(dec) == ctx.q**d
            assert box_count_oracle(spec, ctx) == ctx.q**d


def test_free_rank_exact_when_n_divides_q():
    for n, p, e in [(2, 2, 1), (2, 2, 3), (3, 3, 2), (5, 5, 1), (4, 2, 4)]:
        spec = parse_builtin(f"an:{n}")
        ctx = FrobeniusContext(p, e)
        assert ctx.q % n == 0
        dec = decompose(spec, zero_divisor(spec), ctx)
        assert free_rank(dec) == ctx.q**2 // n


def test_multiplicity_of_matches_free_rank_for_zero_class():
    spec = parse_builtin("an:2")
    ctx = FrobeniusContext(2, 1)
    dec = decompose(spec, zero_divisor(spec), ctx)
    cg = class_group(spec)
    assert multiplicity_of(dec, cg.zero()) == free_rank(dec)
    one = torsion_elements(cg)[1]
    assert multiplicity_of(dec, one) == 2
    # absent classes count zero
    other = class_of(class_group(parse_builtin("quadric")), WeilDivisor((5, 0, 0, 0)))
    assert multiplicity_of(dec, other) == 0


def test_rank_accounting():
    for token in CORPUS:
        spec = parse_builtin(token)
        for p, e in [(2, 1), (2, 2), (3, 1)]:
            ctx = FrobeniusContext(p, e)
            dec = decompose(spec, zero_divisor(spec), ctx)
            assert sum(dec.summands.values()) == ctx.q**spec.dim


def test_box_count_oracle_matches_free_rank():
    for token in CORPUS:
        spec = parse_builtin(token)
        for p in (2, 3):
            for e in (1, 2):
                ctx = FrobeniusContext(p, e)
                dec = decompose(spec, zero_divisor(spec), ctx)
                assert free_rank(dec) == box_count_oracle(spec, ctx), (token, p, e)


def test_simultaneous_torsion_count():
    # finite class group: every summand is torsion, so the count is q^d
    for token in ["an:2", "an:5", "veronese:3", "poly:2"]:
        spec = parse_builtin(token)
        ctx = FrobeniusContext(2, 2)
        dec = decompose(spec, zero_divisor(spec), ctx)
        assert simultaneous_torsion_count(dec) == ctx.q**spec.dim
    # free class group: only the zero class is torsion
    quadric = parse_builtin("quadric")
    ctx = FrobeniusContext(3, 1)
    dec = decompose(quadric, zero_divisor(quadric), ctx)
    assert simultaneous_torsion_count(dec) == free_rank(dec)
    assert simultaneous_torsion_count(dec) <= ctx.q**3
    # free rank 2 and torsion (Z/2)^2: the sum over the listed torsion classes
    mixed = ring_from_dict(MIXED)
    dec = decompose(mixed, WeilDivisor((3, -1, 4, 1, -5)), FrobeniusContext(3, 2))
    torsion = torsion_elements(class_group(mixed))
    assert simultaneous_torsion_count(dec) == sum(multiplicity_of(dec, c) for c in torsion)
    assert 0 < simultaneous_torsion_count(dec) < sum(dec.summands.values())


def test_twisted_decomposition_summand_identity():
    # twisting the base divisor by q*D shifts every per-coset summand by D
    rng = random.Random(123)
    for n in (2, 3, 4):
        spec = parse_builtin(f"an:{n}")
        for p in (2, 3):
            for _ in range(5):
                d1 = WeilDivisor((rng.randint(-5, 5), rng.randint(-5, 5)))
                d2 = WeilDivisor((rng.randint(-5, 5), rng.randint(-5, 5)))
                ctx = FrobeniusContext(p, 2)
                base = listed_cosets(coset_rows(spec, d1, ctx), ctx.q)
                twisted = listed_cosets(coset_rows(spec, d1 + ctx.q * d2, ctx), ctx.q)
                for (w1, s1), (w2, s2) in zip(base, twisted, strict=True):
                    assert w1 == w2
                    assert s1 + d2 == s2


def test_partition_independence():
    spec = parse_builtin("an:3")
    d = WeilDivisor((2, -1))
    ctx = FrobeniusContext(3, 2)
    reference, _ = decompose_reference(spec, d, ctx.q)
    dec = decompose(spec, d, ctx)
    assert dec.summands == reference
    assert list(dec.summands) == sorted(
        dec.summands, key=lambda c: (c.free, c.torsion)
    )


def test_detail_classes_match_summand_counts():
    for token in ["an:4", "veronese:3", "quadric"]:
        spec = parse_builtin(token)
        cg = class_group(spec)
        ctx = FrobeniusContext(2, 1)
        dec = decompose(spec, zero_divisor(spec), ctx)
        recount = {}
        for _, summand in listed_cosets(coset_rows(spec, zero_divisor(spec), ctx), ctx.q):
            c = class_of(cg, summand)
            recount[c] = recount.get(c, 0) + 1
        assert recount == dec.summands


def test_nonzero_base_divisor_warns_on_free_rank():
    spec = parse_builtin("an:3")
    dec = decompose(spec, WeilDivisor((1, 0)), FrobeniusContext(2, 1))
    with pytest.warns(UserWarning):
        free_rank(dec)


def test_every_torsion_class_eventually_appears():
    # each torsion class must show up as a summand from some threshold on;
    # record the first appearance and require presence at every later e
    for token in ["an:4", "an:6", "veronese:5"]:
        spec = parse_builtin(token)
        cg = class_group(spec)
        table = {}
        for e in range(1, 6):
            dec = decompose(spec, zero_divisor(spec), FrobeniusContext(2, e))
            for c in torsion_elements(cg):
                table.setdefault(c, []).append(multiplicity_of(dec, c))
        for c, counts in table.items():
            assert any(counts), f"{token}: class {c} never appeared by e=5"
            e0 = next(i for i, n in enumerate(counts) if n)
            assert all(n >= 1 for n in counts[e0:]), (
                f"{token}: class {c} dropped out after e0={e0 + 1}"
            )


def _shifted_facet_box_count(spec, divisor, q):
    """Brute count of {u in L : q*a_i <= facet_i(u) < q*(1 + a_i)} over a
    generous ambient box; knows nothing about cosets or class projections."""
    import itertools

    lo = min(q * a for a in divisor.coeffs) - 3 * q
    hi = max(q * (1 + a) for a in divisor.coeffs) + 3 * q
    count = 0
    for u in itertools.product(range(lo, hi + 1), repeat=spec.dim):
        if coefficients_of(spec.lattice, u) is None:
            continue
        if all(
            q * a <= f.pairing(u) < q * (1 + a)
            for f, a in zip(spec.facets, divisor.coeffs)
        ):
            count += 1
    return count


def test_class_multiplicity_matches_shifted_box_count():
    # the number of summands in the class of D equals the number of lattice
    # points whose facet values land in the q-shifted window; this checks
    # every per-class count, not just the free rank
    rng = random.Random(6)
    cases = [("an:2", (2, 1)), ("an:3", (2, 2)), ("veronese:3", (3, 1))]
    for token, (p, e) in cases:
        spec = parse_builtin(token)
        cg = class_group(spec)
        ctx = FrobeniusContext(p, e)
        dec = decompose(spec, zero_divisor(spec), ctx)
        for _ in range(4):
            d = WeilDivisor(tuple(rng.randint(-2, 2) for _ in range(2)))
            assert multiplicity_of(dec, class_of(cg, d)) == _shifted_facet_box_count(
                spec, d, ctx.q
            ), (token, p, e, d)


def test_quadric_class_multiplicities_match_shifted_counts():
    spec = parse_builtin("quadric")
    cg = class_group(spec)
    ctx = FrobeniusContext(2, 1)
    dec = decompose(spec, zero_divisor(spec), ctx)
    for d in [
        WeilDivisor((0, 0, 0, 0)),
        WeilDivisor((0, 0, 0, -1)),
        WeilDivisor((0, 0, 0, 1)),
        WeilDivisor((1, 0, 0, 0)),
    ]:
        assert multiplicity_of(dec, class_of(cg, d)) == _shifted_facet_box_count(
            spec, d, ctx.q
        ), d


def test_cap_errors():
    spec = parse_builtin("quadric")
    with pytest.raises(CapExceededError):
        decompose(spec, zero_divisor(spec), FrobeniusContext(2, 4), cap=100)
    with pytest.raises(CapExceededError):
        box_count_oracle(spec, FrobeniusContext(2, 4), cap=100)
    # coset_rows checks the cap at the call, before any row is asked for
    with pytest.raises(CapExceededError):
        coset_rows(spec, zero_divisor(spec), FrobeniusContext(2, 4), cap=100)


def test_decompose_argument_checks():
    spec = parse_builtin("an:2")
    with pytest.raises(ValueError):
        decompose(spec, WeilDivisor((1, 2, 3)), FrobeniusContext(2, 1))
    with pytest.raises(ValueError):
        coset_rows(spec, WeilDivisor((1, 2, 3)), FrobeniusContext(2, 1))


def test_coset_rows_in_dimension_1_keep_no_row():
    # in d = 1 the one prefix row is every coset: listing q = 65536 of them
    # keeps neither a Fraction nor a divisor per row, where keeping them
    # took 12 MB
    import tracemalloc

    spec = parse_builtin("poly:1")
    tracemalloc.start()
    try:
        rows = coset_rows(spec, WeilDivisor((5,)), FrobeniusContext(2, 16))
        last = None
        for last in listed_cosets(rows, 2**16):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert last == ((F(65535, 65536),), WeilDivisor((1,)))
    assert peak < 1_000_000, peak


def test_coset_representatives_are_canonical():
    # scaled by q, every representative is a lattice point whose coefficient
    # vector runs over [0, q)^d exactly once, in lexicographic order
    for token in ["an:3", "veronese:2", "quadric"]:
        spec = parse_builtin(token)
        ctx = FrobeniusContext(2, 1)
        seen = []
        for w, _ in listed_cosets(coset_rows(spec, zero_divisor(spec), ctx), ctx.q):
            scaled = tuple(x * ctx.q for x in w)
            assert all(x.denominator == 1 for x in scaled)
            coeffs = coefficients_of(spec.lattice, tuple(int(x) for x in scaled))
            assert coeffs is not None
            assert all(0 <= c < ctx.q for c in coeffs)
            seen.append(coeffs)
        assert seen == sorted(seen)
        assert len(set(seen)) == ctx.q**spec.dim


def test_nonzero_divisor_count_matches_listing():
    rng = random.Random(8)
    for token in ["an:5", "veronese:4", "quadric"]:
        spec = parse_builtin(token)
        m = spec.num_facets
        for _ in range(4):
            d = WeilDivisor(tuple(rng.randint(-7, 7) for _ in range(m)))
            ctx = FrobeniusContext(2, 2)
            fast = decompose(spec, d, ctx)
            slow = {}
            for _, summand in listed_cosets(coset_rows(spec, d, ctx), ctx.q):
                c = class_of(spec.class_group, summand)
                slow[c] = slow.get(c, 0) + 1
            assert fast.summands == slow


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


def _innermost_sum(spec):
    rows = pairing_matrix(spec).to_rows()
    return min(sum(abs(r[j]) for r in rows) for j in range(spec.dim))


def decompose_reference(spec, divisor, q):
    """Summands and per-coset detail from a plain loop over single cosets
    in Python integers: the definition the kernels must reproduce."""
    d = spec.dim
    basis = spec.lattice.basis
    cg = class_group(spec)
    grows = pairing_matrix(spec).to_rows()
    counts = {}
    detail = []
    for c in itertools.product(range(q), repeat=d):
        floors = tuple(
            (sum(cj * gi[j] for j, cj in enumerate(c)) + ai) // q
            for gi, ai in zip(grows, divisor.coeffs)
        )
        summand = WeilDivisor(floors)
        cls = class_of(cg, summand)
        counts[cls] = counts.get(cls, 0) + 1
        w = tuple(
            F(sum(cj * basis.at(j, k) for j, cj in enumerate(c)), q)
            for k in range(d)
        )
        detail.append((w, summand))
    order = sorted(counts, key=lambda e: (e.free, e.torsion))
    ordered = {cls: counts[cls] for cls in order}
    return ordered, tuple(detail)


def _runs_vs_pure(spec, divisor, ctx):
    fast = decompose(spec, divisor, ctx).summands
    slow, _ = decompose_reference(spec, divisor, ctx.q)
    assert fast == slow, (spec.name, divisor, ctx.q)
    assert list(fast) == list(slow)


def test_noncyclic_literal_rings():
    klein = ring_from_dict(KLEIN)
    mixed = ring_from_dict(MIXED)
    for spec in (klein, mixed):
        assert validate(spec) == []
    assert class_group(klein).free_rank == 0
    assert class_group(klein).invariant_factors == (2, 2)
    assert class_group(mixed).free_rank == 2
    assert class_group(mixed).invariant_factors == (2, 2)


@pytest.mark.parametrize(
    "ring, p, e, sparse",
    [(KLEIN, 2, 1, False), (KLEIN, 2, 3, True), (KLEIN, 5, 1, True),
     (MIXED, 2, 3, False), (MIXED, 2, 4, True), (MIXED, 5, 2, True)],
)
def test_runs_match_pure_on_noncyclic_rings(ring, p, e, sparse):
    # sparse: K + 1 < q, K the least absolute column sum of G, so a row in
    # t has fewer cuts than q - 1; otherwise its cuts can reach every t
    spec = ring_from_dict(ring)
    ctx = FrobeniusContext(p, e)
    assert (_innermost_sum(spec) + 1 < ctx.q) == sparse
    rng = random.Random(p * 100 + e)
    m = spec.num_facets
    for divisor in [
        zero_divisor(spec),
        WeilDivisor(tuple(-1 - i for i in range(m))),
        WeilDivisor(tuple(rng.randint(-3 * ctx.q, 3 * ctx.q) for _ in range(m))),
    ]:
        _runs_vs_pure(spec, divisor, ctx)


def test_huge_coefficients_match_pure():
    # coefficients past int64 reduce to 0 <= r < q before counting
    for token in ("an:4", "quadric"):
        spec = parse_builtin(token)
        m = spec.num_facets
        for ctx in (FrobeniusContext(2, 1), FrobeniusContext(3, 1)):
            for sign in (1, -1):
                d = WeilDivisor(tuple(sign * (2**63 + 7 * i + 1) for i in range(m)))
                _runs_vs_pure(spec, d, ctx)
    klein = ring_from_dict(KLEIN)
    _runs_vs_pure(klein, WeilDivisor((2**64, -(2**70) - 3, 5)), FrobeniusContext(2, 2))


# facets (1, N) and (N, 1) on Z^2 with N = 10^12, torsion Z/(N^2 - 1)
WIDE = {
    "name": "wide",
    "dim": 2,
    "lattice_basis": [[1, 0], [0, 1]],
    "facets": [["1", str(10**12)], [str(10**12), "1"]],
}

# torsion Z/13; G has the entries -10 in the counter's t column and 13 in
# the lister's, past every q below
TILT = {
    "name": "tilt",
    "dim": 3,
    "lattice_basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "facets": [["1", "0", "0"], ["0", "1", "0"], ["-10", "11", "13"]],
}


@pytest.mark.parametrize("ring", [WIDE, TILT], ids=["wide", "tilt"])
def test_pairings_far_above_q_match_reference(ring):
    # a facet whose pairing passes q moves its floor at every t, by g // q
    # or one more, so a row has at most q - 1 cuts however large G is
    spec = ring_from_dict(ring)
    assert validate(spec) == []
    m = spec.num_facets
    for p, e in ((2, 1), (3, 1), (2, 2), (2, 3), (3, 2)):
        ctx = FrobeniusContext(p, e)
        for coeffs in ((0,) * m, (5, -3, 7)[:m], (2**63 + 5, -(3**45), 2**64)[:m]):
            _detail_vs_reference(spec, WeilDivisor(coeffs), ctx)


def test_count_with_pairings_far_above_q_stays_small():
    # at most q - 1 keys per facet and residue, where |g| keys per residue
    # took 302 MB at N = 10^7
    import tracemalloc

    spec = ring_from_dict(WIDE)
    class_group(spec)
    tracemalloc.start()
    try:
        dec = decompose(spec, zero_divisor(spec), FrobeniusContext(2, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(dec.summands.values()) == 16
    assert peak < 2_000_000, peak


def test_listing_keeps_its_cut_tables_bounded():
    # the second facet of an:100001 moves at every t, q - 1 keys for each
    # residue it meets: over q = 512 rows the tables kept stay near 2^16
    # keys, where keeping every one held 512 * 511 keys, about 10 MB
    import tracemalloc

    spec = parse_builtin("an:100001")
    rows = coset_rows(spec, zero_divisor(spec), FrobeniusContext(2, 9))
    tracemalloc.start()
    try:
        runs = sum(len(block) for _, block in rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert runs == 512 * 512
    assert peak < 5_000_000, peak


def test_listing_with_pairings_far_above_q_keeps_its_memos_bounded():
    # facets (1, N) and (N, 1), N = 10^12 + 1: the q^2 cosets at q = 2^8 have
    # q^2 distinct floor vectors, and the listing keeps none past its block,
    # where one divisor per floor vector peaked at 19 MB
    import tracemalloc

    n = str(10**12 + 1)
    spec = ring_from_dict({**WIDE, "facets": [["1", n], [n, "1"]]})
    assert validate(spec) == []
    rows = coset_rows(spec, zero_divisor(spec), FrobeniusContext(2, 8))
    tracemalloc.start()
    try:
        runs = sum(len(block) for _, block in rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert runs == 256 * 256
    assert peak < 6_000_000, peak


def test_numerator_memo_holds_sixteen_rows_and_none_in_dimension_1():
    # a prefix row has up to q numerators per coordinate; in d = 1 the one
    # row has q distinct ones, and the memo is skipped
    made = []

    def make(n):
        made.append(n)
        return -n

    assert frobenius.numerator_memo(make, 1024, 1) is make
    memo = frobenius.numerator_memo(make, 1024, 2)
    assert frobenius.memo_limit(1024) == 16 * 1024
    assert frobenius.memo_limit(2) == 4096
    for _ in range(2):
        assert [memo(n) for n in range(16 * 1024)] == [-n for n in range(16 * 1024)]
    assert made == list(range(16 * 1024))


def test_one_dimensional_plain_count_scans_one_row():
    # facets x and 2x on Z, and 1, -2/3, 5/3 on 3Z: validate refuses both,
    # and their class groups Z and Z^2 are not trivial, so a plain count
    # cannot take the shortcut; the counter scans their one row
    line = RingSpec(
        "line", Lattice(IntMat.from_rows([[1]])),
        (FacetFunctional((F(1),)), FacetFunctional((F(2),))),
    )
    line3 = RingSpec(
        "line3", Lattice(IntMat.from_rows([[3]])),
        (FacetFunctional((F(1),)), FacetFunctional((F(-2, 3),)),
         FacetFunctional((F(5, 3),))),
    )
    for spec, free in ((line, 1), (line3, 2)):
        assert validate(spec)
        cg = class_group(spec)
        assert (cg.free_rank, cg.invariant_factors) == (free, ())
        for p, e in ((2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (2, 6)):
            ctx = FrobeniusContext(p, e)
            m = spec.num_facets
            for coeffs in ((0,) * m, (3, -5, 8)[:m], (-7, 11, -1)[:m],
                           (-(2**64), 2**63 + 1, 3**50)[:m]):
                _runs_vs_pure(spec, WeilDivisor(coeffs), ctx)


def test_large_divisor_is_counted_reduced(monkeypatch):
    # the plane counts the reduced divisor 0 <= r < q, never 10^20 itself
    spec = parse_builtin("quadric")
    ctx = FrobeniusContext(2, 6)
    cg = class_group(spec)
    r = decompose(spec, WeilDivisor((10**20 % 64, 0, 0, 0)), ctx)
    seen = []
    plane = frobenius._plane_runs
    monkeypatch.setattr(
        frobenius, "_plane_runs", lambda r, q, *a: seen.append((r, q)) or plane(r, q, *a)
    )
    dec = decompose(spec, WeilDivisor((10**20, 0, 0, 0)), ctx)
    assert seen == [((10**20 % 64, 0, 0, 0), 64)]
    assert sum(dec.summands.values()) == ctx.q**3
    shift = class_of(cg, WeilDivisor((10**20 // 64, 0, 0, 0)))
    assert dec.summands == {cg.add(c, shift): n for c, n in r.summands.items()}


def test_pairings_past_int64_match_reference(monkeypatch):
    # G has an entry 2^62, so G*(q-1) leaves int64; the counter takes it
    # as any other G
    spec = parse_builtin(f"an:{2**62}")
    calls = []
    plane = frobenius._plane_runs
    monkeypatch.setattr(
        frobenius, "_plane_runs", lambda *a, **k: calls.append(1) or plane(*a, **k)
    )
    for ctx in (FrobeniusContext(3, 1), FrobeniusContext(3, 2), FrobeniusContext(5, 2)):
        for divisor in (WeilDivisor((1, -2)), WeilDivisor((-(2**70), 3**50))):
            expected, _ = decompose_reference(spec, divisor, ctx.q)
            assert decompose(spec, divisor, ctx).summands == expected
    assert calls == [1] * 6


DETAIL_RINGS = ["poly:2", "quadric", "an:3", "an:5", "an:6", "veronese:2", "veronese:5"]
# a sparse q past those below, with the divisor 5 - 4i
DETAIL_SPARSE = {"quadric": FrobeniusContext(2, 3), "an:5": FrobeniusContext(3, 2)}


def _detail_divisors(spec, q, rng):
    m = spec.num_facets
    return [
        zero_divisor(spec),
        WeilDivisor(tuple(-1 - i for i in range(m))),
        WeilDivisor(tuple(rng.randint(-3 * q, 3 * q) for _ in range(m))),
        WeilDivisor(tuple((-1) ** i * (2**63 + 5 * i + 1) for i in range(m))),
    ]


def _detail_vs_reference(spec, divisor, ctx):
    dec = decompose(spec, divisor, ctx)
    blocks = list(coset_rows(spec, divisor, ctx))
    summands, detail = decompose_reference(spec, divisor, ctx.q)
    assert dec.summands == summands, (spec.name, divisor, ctx.q)
    assert list(dec.summands) == list(summands)
    assert tuple(listed_cosets(blocks, ctx.q)) == detail, (spec.name, divisor, ctx.q)
    for numerators, runs in blocks:
        assert all(type(x) is int for pair in numerators for x in pair)
        assert sum(n for n, _ in runs) == ctx.q
        for _, floors in runs:
            assert type(floors) is tuple and all(type(x) is int for x in floors)


@pytest.mark.parametrize("token", DETAIL_RINGS)
def test_detail_matches_reference_on_builtins(token):
    # q = 2 and 4 are dense for every ring here, 16 and 25 sparse for most
    spec = parse_builtin(token)
    rng = random.Random(token)
    for ctx in (FrobeniusContext(2, 1), FrobeniusContext(2, 2), FrobeniusContext(5, 1)):
        for divisor in _detail_divisors(spec, ctx.q, rng):
            _detail_vs_reference(spec, divisor, ctx)
    if spec.dim == 2:
        ctx = FrobeniusContext(2, 4)
        for divisor in _detail_divisors(spec, ctx.q, rng):
            _detail_vs_reference(spec, divisor, ctx)
    if token in DETAIL_SPARSE:
        divisor = WeilDivisor(tuple(5 - 4 * i for i in range(spec.num_facets)))
        _detail_vs_reference(spec, divisor, DETAIL_SPARSE[token])


@pytest.mark.parametrize("ring", [KLEIN, MIXED])
def test_detail_matches_reference_on_noncyclic_rings(ring):
    spec = ring_from_dict(ring)
    rng = random.Random(spec.name)
    for ctx in (FrobeniusContext(2, 1), FrobeniusContext(3, 1), FrobeniusContext(2, 3)):
        for divisor in _detail_divisors(spec, ctx.q, rng):
            _detail_vs_reference(spec, divisor, ctx)


def test_detail_with_pairings_past_int64():
    # an:2^62 overflows int64 in G and in the basis, times q - 1; the
    # listed floors and representative numerators are Python integers
    spec = parse_builtin(f"an:{2**62}")
    assert pairing_matrix(spec).to_rows()[1] == [1, 2**62]
    for coeffs in ((0, 0), (1, -2), (-(10**25), 7)):
        divisor = WeilDivisor(coeffs)
        for ctx in (FrobeniusContext(2, 1), FrobeniusContext(3, 1)):
            _detail_vs_reference(spec, divisor, ctx)


def test_trivial_class_group_detail():
    spec = parse_builtin("poly:2")
    cg = class_group(spec)
    ctx = FrobeniusContext(3, 1)
    dec = decompose(spec, WeilDivisor((4, -5)), ctx)
    rows = list(listed_cosets(coset_rows(spec, WeilDivisor((4, -5)), ctx), ctx.q))
    assert dec.summands == {cg.zero(): 9}
    assert len(rows) == 9
    assert rows[1] == ((F(0), F(1, 3)), WeilDivisor((1, -2)))


def test_cap_is_checked_before_q_is_formed():
    # q^d >= 2^(e*d) > cap is decided from e and d alone
    spec = parse_builtin("an:3")
    ctx = FrobeniusContext(2, 10**8)
    with pytest.raises(CapExceededError, match=r"\(2\^100000000\)\^2"):
        decompose(spec, zero_divisor(spec), ctx)
    with pytest.raises(CapExceededError, match=r"over the cap of 15"):
        decompose(spec, zero_divisor(spec), FrobeniusContext(2, 2), cap=15)
    dec = decompose(spec, zero_divisor(spec), FrobeniusContext(2, 2), cap=16)
    assert dec.rank == 16


def random_spec(rng, d, kind="plain"):
    """A random ring spec of dimension d: primitive integer rows g of the
    pairing matrix, positive on an interior point, over an HNF lattice basis
    B, with facet covectors B^-1 g.  ``kind`` then adds a redundant row (the
    sum of two rows), a flat pair (a row and its negative), a duplicate row
    or twice a row; the spec may still be invalid in other ways."""
    diag = [rng.choice((1, 1, 2, 3)) for _ in range(d)]
    basis = [
        [diag[i] if j == i else (rng.randrange(diag[j]) if j > i else 0) for j in range(d)]
        for i in range(d)
    ]
    interior = [rng.randint(1, 3) for _ in range(d)]
    rows = []
    while len(rows) < d or (len(rows) < d + 3 and rng.random() < 0.5):
        g = [rng.randint(-3, 3) for _ in range(d)]
        if math.gcd(*g) == 1 and sum(a * b for a, b in zip(g, interior)) > 0:
            rows.append(g)
    g, h = rng.sample(rows, 2) if len(rows) > 1 else (rows[0], rows[0])
    extra = {
        "plain": [],
        "redundant": [[x + y for x, y in zip(g, h)]],
        "flat": [[-x for x in g]],
        "duplicate": [g],
        "multiple": [[2 * x for x in g]],
    }[kind]
    rows += [r for r in extra if any(r)]
    rng.shuffle(rows)
    facets = tuple(FacetFunctional(solve_square(basis, r)) for r in rows)
    return RingSpec(f"random-{kind}", Lattice(IntMat.from_rows(basis)), facets)


def _adjugate(m):
    """adj(m) = det(m) * m^-1, one rational solve per column."""
    n = m.rows
    det = m.det()
    cols = [
        [int(x) for x in solve_square(m.to_rows(), [F(det if i == j else 0) for i in range(n)])]
        for j in range(n)
    ]
    return IntMat.from_rows([[cols[j][i] for j in range(n)] for i in range(n)])


def _box_problem(spec, q):
    """The ambient set-up of the reference: the vertex bounding box scaled
    by q, the adjugate membership test, and integer facet numerators and
    denominators."""
    vertices = unit_region_vertices(spec)
    bounds = [
        (math.ceil(min(v[k] * q for v in vertices)), math.floor(max(v[k] * q for v in vertices)))
        for k in range(spec.dim)
    ]
    basis_t = spec.lattice.basis.transpose()
    adj = _adjugate(basis_t)
    facet_nums, facet_dens = [], []
    for f in spec.facets:
        den = 1
        for c in f.covector:
            den = math.lcm(den, c.denominator)
        facet_nums.append([int(c * den) for c in f.covector])
        facet_dens.append(den)
    return bounds, adj, basis_t.det(), facet_nums, facet_dens


def box_count_reference(spec, q):
    """box_count_oracle one ambient point at a time: the plain loop over the
    bounding box that the oracle's line count must reproduce."""
    bounds, adj, det, facet_nums, facet_dens = _box_problem(spec, q)
    count = 0
    adet = abs(det)
    for u in itertools.product(*(range(lo, hi + 1) for lo, hi in bounds)):
        if any(
            sum(adj.at(j, i) * u[i] for i in range(adj.cols)) % adet
            for j in range(adj.rows)
        ):
            continue
        good = True
        for nums, den in zip(facet_nums, facet_dens):
            v = sum(n * x for n, x in zip(nums, u))
            if v < 0 or v >= q * den:
                good = False
                break
        if good:
            count += 1
    return count


def _box_vs_reference(spec, ctx):
    assert box_count_oracle(spec, ctx) == box_count_reference(spec, ctx.q), (spec.name, ctx)


BOX_RINGS = [
    "poly:1", "poly:2", "poly:3", "quadric", "an:2", "an:5", "veronese:3", "veronese:7",
]


@pytest.mark.parametrize("ring", BOX_RINGS + ["klein", "mixed"])
def test_box_count_matches_reference(ring):
    docs = {"klein": KLEIN, "mixed": MIXED}
    spec = ring_from_dict(docs[ring]) if ring in docs else parse_builtin(ring)
    for p, e in ((2, 1), (2, 3), (3, 2), (5, 1), (7, 1)):
        if (p**e + 1) ** spec.dim <= 50_000:
            _box_vs_reference(spec, FrobeniusContext(p, e))


def test_box_count_past_int64():
    # a row of G for an:2^62 sums to 2^62 + 1, past int64; the lines are
    # cut in Python integers
    spec = parse_builtin(f"an:{2**62}")
    for ctx in (FrobeniusContext(2, 1), FrobeniusContext(3, 2), FrobeniusContext(3, 5)):
        _box_vs_reference(spec, ctx)
    # a = b mod 2^62 with 0 <= a, b < 243 leaves the diagonal a = b
    assert box_count_oracle(spec, FrobeniusContext(3, 5)) == 243


def test_box_count_on_random_rings():
    rng = random.Random(17)
    done = 0
    while done < 12:
        spec = random_spec(rng, rng.randint(1, 3))
        if validate(spec):
            continue
        for ctx in (FrobeniusContext(2, 2), FrobeniusContext(3, 1)):
            _box_vs_reference(spec, ctx)
        done += 1


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


def test_box_count_cap_bounds_lines():
    spec = ring_from_dict(BOX_RING)
    assert validate(spec) == []
    ctx = FrobeniusContext(3, 2)
    dec = decompose(spec, zero_divisor(spec), ctx)
    assert box_count_oracle(spec, ctx) == free_rank(dec)


# q -> (p, e) for the prime powers below 30
PRIME_POWERS = {
    2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2),
    11: (11, 1), 13: (13, 1), 16: (2, 4), 17: (17, 1), 19: (19, 1), 23: (23, 1),
    25: (5, 2), 27: (3, 3), 29: (29, 1),
}


def test_listing_matches_reference_on_random_rings():
    # valid random rings in d = 2..4: three with non-cyclic torsion and
    # six more whose last column of G, the axis coset_rows splits at
    # its breakpoints, has mixed signs; at a sparse q (K + 1 < q, K that
    # column's absolute sum) and a dense one
    rng = random.Random(43)
    want = {"noncyclic": 3, "mixed": 6}
    dims = set()
    while any(want.values()):
        d = rng.randint(2, 4)
        spec = random_spec(rng, d)
        if validate(spec):
            continue
        last = [row[-1] for row in pairing_matrix(spec).to_rows()]
        kind = "noncyclic" if len(class_group(spec).invariant_factors) > 1 else (
            "mixed" if min(last) < 0 < max(last) else None
        )
        kk = sum(map(abs, last))
        sparse = min(q for q in PRIME_POWERS if q > kk + 1)
        if not want.get(kind) or sparse**d > 2500:
            continue
        want[kind] -= 1
        dims.add(d)
        for q in (max(q for q in PRIME_POWERS if q <= kk + 1), sparse):
            # coefficients of either sign, small and past 2^63
            divisor = WeilDivisor(tuple(
                rng.choice((1, -1)) * (rng.choice((0, 2**63)) + rng.randrange(3 * q))
                for _ in range(spec.num_facets)
            ))
            _detail_vs_reference(spec, divisor, FrobeniusContext(*PRIME_POWERS[q]))
    assert dims == {2, 3, 4}


def _plane_summands(spec, divisor, q):
    """The summands of D = q*k + r from the plane on r, shifted by the
    class of k."""
    cg = class_group(spec)
    g = pairing_matrix(spec)
    shift = class_of(cg, WeilDivisor(tuple(a // q for a in divisor.coeffs)))
    r = tuple(a % q for a in divisor.coeffs)
    nfree = cg.free_rank
    counts = frobenius._plane_runs(r, q, cg, g.to_rows())
    return {
        cg.add(ClassElement(key[:nfree], key[nfree:]), shift): n for key, n in counts.items()
    }


def test_count_matches_reference_on_random_rings():
    # valid random rings in d = 2..5 with a nontrivial class group, some of
    # free rank > 0 and some with non-cyclic torsion, at a dense q (K + 1 >=
    # q, K the least absolute column sum of G) and a sparse one, with
    # coefficients of both signs; the least-K column, the plane's t, is not
    # the last one, the listing's t, in some of them
    rng = random.Random(59)
    want = {(2, "plain"): 2, (3, "plain"): 1, (3, "free"): 1, (3, "noncyclic"): 1,
            (4, "free"): 1, (4, "noncyclic"): 1, (5, "plain"): 1}
    moved = 0
    while any(want.values()):
        d = rng.choice([d for (d, _), n in want.items() if n])
        spec = random_spec(rng, d)
        grows = pairing_matrix(spec).to_rows()
        inner = min(range(d), key=lambda j: sum(abs(row[j]) for row in grows))
        kk = sum(abs(row[inner]) for row in grows)
        sparse = min(q for q in PRIME_POWERS if q > kk + 1)
        if not kk or sparse**d > 3125 or validate(spec):
            continue
        cg = class_group(spec)
        if not cg.projection.rows:
            continue  # decompose never counts a trivial class group
        kind = "free" if cg.free_rank else (
            "noncyclic" if len(cg.invariant_factors) > 1 else "plain"
        )
        if not want.get((d, kind)):
            continue
        want[d, kind] -= 1
        moved += inner != d - 1
        for q in (max(q for q in PRIME_POWERS if q <= kk + 1), sparse):
            divisor = WeilDivisor(tuple(
                rng.choice((1, -1)) * (rng.choice((0, 2**63)) + rng.randrange(3 * q))
                for _ in range(spec.num_facets)
            ))
            expected, _ = decompose_reference(spec, divisor, q)
            assert _plane_summands(spec, divisor, q) == expected, (spec, divisor, q)
    assert moved >= 3


# the prime powers up to 256 that the plane test draws q from
PLANE_POWERS = sorted({*PRIME_POWERS, 32, 49, 64, 81, 125, 128, 243, 256})


def test_plane_matches_reference_on_random_rings(monkeypatch):
    # the plane on seeded valid rings in d = 2..5, some of free rank > 0 and
    # some with non-cyclic torsion, at a dense q (K + 1 >= q) and at the
    # largest sparse q whose reference count stays small, where s-intervals
    # of the split plane hold many values; divisors of either sign and past 2^63, so that the
    # reference counts D = q*k + r itself and the plane counts r and shifts
    # by the class of k: the twist identity
    rng = random.Random(71)
    want = {(2, "torsion"): 2, (3, "torsion"): 1, (3, "free"): 2, (4, "free"): 1,
            (4, "noncyclic"): 1, (5, "noncyclic"): 1, (5, "free"): 1}
    limit = {2: 6000, 3: 4100, 4: 4100, 5: 3125}
    sparse_rings = 0
    floor_sums = []
    floor_sum = frobenius._floor_sum
    monkeypatch.setattr(
        frobenius, "_floor_sum", lambda *a: floor_sums.append(1) or floor_sum(*a)
    )
    while any(want.values()):
        d = rng.choice([d for (d, _), n in want.items() if n])
        spec = random_spec(rng, d)
        if validate(spec):
            continue
        cg = class_group(spec)
        if not cg.projection.rows:
            continue
        kind = "free" if cg.free_rank else (
            "noncyclic" if len(cg.invariant_factors) > 1 else "torsion"
        )
        if not want.get((d, kind)):
            continue
        want[d, kind] -= 1
        grows = pairing_matrix(spec).to_rows()
        kk = min(sum(abs(row[j]) for row in grows) for j in range(d))
        dense = max(q for q in PLANE_POWERS if q <= kk + 1)
        sparse = max(q for q in PLANE_POWERS if q**d <= limit[d])
        for q in (dense, sparse):
            divisor = WeilDivisor(tuple(
                rng.choice((1, -1)) * (rng.choice((0, 2**63, 3**50)) + rng.randrange(3 * q))
                for _ in range(spec.num_facets)
            ))
            expected, _ = decompose_reference(spec, divisor, q)
            plane = _plane_summands(spec, divisor, q)
            assert plane == expected, (spec, divisor, q)
            assert sum(plane.values()) == q**d
            # a split bound of 0 makes the plane split the s-axis at any q,
            # also where it takes every s as an interval of its own
            floor_sums.clear()
            with monkeypatch.context() as patch:
                patch.setattr(frobenius, "_split_bound", lambda *a: 0)
                split = _plane_summands(spec, divisor, q)
            assert split == expected, (spec, divisor, q)
        # rings whose sparse q the split plane counts over s-intervals of
        # several values, with floor sums
        sparse_rings += bool(floor_sums)
    assert sparse_rings >= 4


def test_plane_at_q_2_to_the_40():
    # d = 2 at q = 2^40 under a raised cap: the multiplicities sum to q^2,
    # the twist identity holds, and adding a principal divisor G*m, which
    # moves every floor of the count, leaves the summands as they are
    spec = parse_builtin("veronese:5")
    ctx = FrobeniusContext(2, 40)
    q = ctx.q
    cap = q**2
    cg = class_group(spec)
    grows = pairing_matrix(spec).to_rows()
    r = (q // 3, 5)
    base = decompose(spec, WeilDivisor(r), ctx, cap=cap).summands
    assert sum(base.values()) == q**2
    assert len(base) == 5
    k = (7, -(10**30))
    twisted = decompose(spec, WeilDivisor((q * k[0] + r[0], q * k[1] + r[1])), ctx, cap=cap)
    shift = class_of(cg, WeilDivisor(k))
    assert twisted.summands == {cg.add(c, shift): n for c, n in base.items()}
    m = (q // 5 + 3, -(q // 7))
    moved = tuple(a + sum(x * y for x, y in zip(row, m)) for a, row in zip(r, grows))
    assert decompose(spec, WeilDivisor(moved), ctx, cap=cap).summands == base
