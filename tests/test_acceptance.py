"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with -s to see
them live).  Tolerances are exact rational comparisons except where an
explicit numeric envelope is stated, and the stated runtime budgets are
asserted alongside the values.
"""

import json
import random
import time
from fractions import Fraction as F

from helpers import (
    cokernel_invariants,
    listed_cosets,
    singh_determinantal_signature,
    verify_per_class_convergence,
)

from toricfsig.cli import main as cli_main
from toricfsig.divisors import WeilDivisor, class_group
from toricfsig.frobenius import (
    FrobeniusContext,
    box_count_oracle,
    coset_rows,
    decompose,
    free_rank,
)
from toricfsig.fsignature import exact_signature_volume, signature_sequence
from toricfsig.linalg import IntMat, smith_normal_form
from toricfsig.rings import parse_builtin

CORPUS = (
    ["poly:1", "poly:2", "poly:3", "quadric"]
    + [f"an:{n}" for n in range(2, 7)]
    + [f"veronese:{n}" for n in range(2, 7)]
)


class _criterion:
    def __init__(self, num, label):
        self.num = num
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    @property
    def elapsed(self):
        return time.perf_counter() - self.t0

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"ACCEPTANCE {self.num:2d} [{self.label}]: {status} "
            f"({self.elapsed:.2f}s)"
        )
        return False


def test_criterion_01_class_groups():
    with _criterion(1, "class groups") as c:
        for n in range(2, 7):
            cg = class_group(parse_builtin(f"an:{n}"))
            assert cg.free_rank == 0 and cg.invariant_factors == (n,)
        quadric = class_group(parse_builtin("quadric"))
        assert quadric.free_rank == 1 and quadric.invariant_factors == ()
        for d in (1, 2, 3):
            cg = class_group(parse_builtin(f"poly:{d}"))
            assert cg.free_rank == 0 and cg.invariant_factors == ()
        assert c.elapsed < 1.0


def test_criterion_02_singh_formula():
    with _criterion(2, "Singh determinantal formula") as c:
        singh = singh_determinantal_signature(2, 3)
        assert singh == F(2, 3)
        assert singh == exact_signature_volume(parse_builtin("quadric"))
        assert c.elapsed < 1.0


def test_criterion_03_exact_signatures():
    with _criterion(3, "exact F-signature values"):
        for n in range(2, 7):
            assert exact_signature_volume(parse_builtin(f"an:{n}")) == F(1, n)
        for d in (1, 2, 3):
            assert exact_signature_volume(parse_builtin(f"poly:{d}")) == 1


def test_criterion_04_sequence_envelope():
    with _criterion(4, "sequence agreement with the counting envelope") as c:
        for n in range(2, 7):
            spec = parse_builtin(f"an:{n}")
            for p, e_max in [(2, 8), (3, 5), (5, 3)]:
                for est in signature_sequence(spec, p, e_max):
                    q = est.q
                    assert q <= 256
                    envelope = F(2 * q * n + n * n + 2 * q, q * q)
                    assert abs(est.s_e - F(1, n)) <= envelope, (n, p, q)
                    if q % n == 0:
                        assert est.s_e == F(1, n), (n, p, q)
        assert c.elapsed < 30.0


def test_criterion_05_oracle_equivalence_and_06_rank_accounting():
    with _criterion(5, "free rank equals box-count oracle") as c:
        rank_checked = 0
        for token in CORPUS:
            spec = parse_builtin(token)
            zero = WeilDivisor((0,) * spec.num_facets)
            for p in (2, 3):
                e = 1
                while (q := p**e) <= 128:
                    ctx = FrobeniusContext(p, e)
                    dec = decompose(spec, zero, ctx)
                    assert sum(dec.summands.values()) == q**spec.dim
                    rank_checked += 1
                    assert free_rank(dec) == box_count_oracle(spec, ctx), (
                        token,
                        p,
                        e,
                    )
                    e += 1
        assert rank_checked > 100
    with _criterion(6, "rank accounting (see also criteria 5 and 9)"):
        # every decomposition above summed to q^d; spot-check twists too
        for token in ["an:4", "quadric"]:
            spec = parse_builtin(token)
            twist = WeilDivisor(tuple(range(1, spec.num_facets + 1)))
            ctx = FrobeniusContext(3, 2)
            dec = decompose(spec, twist, ctx)
            assert sum(dec.summands.values()) == ctx.q**spec.dim


def test_criterion_07_twist_identity():
    with _criterion(7, "twisted decomposition summand identity"):
        rng = random.Random(20250808)
        for n in (2, 3, 4):
            spec = parse_builtin(f"an:{n}")
            pairs = [
                (
                    WeilDivisor((rng.randint(-6, 6), rng.randint(-6, 6))),
                    WeilDivisor((rng.randint(-6, 6), rng.randint(-6, 6))),
                )
                for _ in range(20)
            ]
            for p in (2, 3):
                for e in (1, 2, 3):
                    ctx = FrobeniusContext(p, e)
                    for d1, d2 in pairs:
                        base = listed_cosets(coset_rows(spec, d1, ctx), ctx.q)
                        twisted = coset_rows(spec, d1 + ctx.q * d2, ctx)
                        twisted = list(listed_cosets(twisted, ctx.q))
                        shifted = [(w, s + d2) for w, s in base]
                        assert shifted == twisted
                        assert sorted(
                            (s.coeffs for _, s in shifted)
                        ) == sorted(s.coeffs for _, s in twisted)


def test_criterion_08_per_class_convergence():
    with _criterion(8, "per-class summand densities at q = 128") as c:
        for n in range(2, 7):
            table = verify_per_class_convergence(parse_builtin(f"an:{n}"), 2, 7)
            assert table.rows[0].terms[-1][1] == 128
            assert len(table.rows) == n
            assert table.max_final_deviation <= F(5, 100), (
                n,
                table.max_final_deviation,
            )
        assert c.elapsed < 30.0


def test_criterion_09_corpus_theorem_run(tmp_path):
    with _criterion(9, "torsion bound over the whole corpus") as c:
        out = tmp_path / "report.json"
        code = cli_main(
            [
                "verify",
                "--corpus",
                "-p",
                "2,3,5",
                "-e",
                "8",
                "--q-max",
                "256",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["all_hold"] is True
        assert doc["errors"] == []
        assert len(doc["verdicts"]) == 14 * 3
        for v in doc["verdicts"]:
            assert v["inequality_holds"] is True
            for w in v["witnesses"]:
                assert w["n_e"] <= w["rank"]
            family = v["ring"].split(":")[0]
            if family in ("poly", "an", "veronese"):
                assert v["equality"] is True, v["ring"]
            else:
                assert family == "quadric"
                assert v["equality"] is False
            max_q = max(w["q"] for w in v["witnesses"])
            assert max_q <= 256
            assert max_q == max(q for q in (v["p"] ** e for e in range(1, 9)) if q <= 256)
        assert c.elapsed < 120.0


def test_criterion_10_linear_algebra_suite():
    with _criterion(10, "Smith form certificates on 500 random matrices") as c:
        rng = random.Random(314159)

        def random_unimodular(n):
            u = IntMat.identity(n).to_rows()
            for _ in range(2 * n + 2):
                kind = rng.randrange(3)
                i, j = rng.randrange(n), rng.randrange(n)
                if kind == 0 and i != j:
                    f = rng.randint(-3, 3)
                    for t in range(n):
                        u[i][t] += f * u[j][t]
                elif kind == 1:
                    u[i], u[j] = u[j], u[i]
                else:
                    u[i] = [-x for x in u[i]]
            return IntMat.from_rows(u)

        for _ in range(500):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            a = IntMat(m, n, tuple(rng.randint(-50, 50) for _ in range(m * n)))
            dec = smith_normal_form(a)
            assert (dec.U @ a @ dec.V) == dec.S
            assert dec.U.is_unimodular() and dec.V.is_unimodular()
            diag = dec.diagonal()
            nonzero = [x for x in diag if x]
            assert all(x >= 0 for x in diag)
            assert list(diag[: len(nonzero)]) == nonzero
            for x, y in zip(nonzero, nonzero[1:]):
                assert y % x == 0
            base = cokernel_invariants(a)
            assert (
                cokernel_invariants(random_unimodular(m) @ a @ random_unimodular(n))
                == base
            )
        assert c.elapsed < 10.0
