import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import cokernel_invariants

from toricfsig.linalg import (
    IntMat,
    hermite_normal_form,
    kernel_basis,
    smith_normal_form,
)


def test_intmat_shape_validation():
    with pytest.raises(ValueError):
        IntMat(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMat.from_rows([[1, 2], [3]])


def test_intmat_basics():
    a = IntMat.from_rows([[1, 2], [3, 4]])
    assert a.at(1, 0) == 3
    assert a.row(0) == (1, 2)
    assert a.col(1) == (2, 4)
    assert a.transpose().to_rows() == [[1, 3], [2, 4]]
    assert (a @ IntMat.identity(2)) == a
    assert a.det() == -2
    assert not a.is_unimodular()
    assert IntMat.identity(3).is_unimodular()
    assert a.mul_vector((1, 1)) == (3, 7)


def test_det_matches_expansion_on_random():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 4)
        a = IntMat(n, n, tuple(rng.randint(-9, 9) for _ in range(n * n)))
        # Laplace expansion along the first row as an independent oracle
        def laplace(rows):
            if len(rows) == 1:
                return rows[0][0]
            total = 0
            for j, x in enumerate(rows[0]):
                if x:
                    minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
                    total += (-1) ** j * x * laplace(minor)
            return total

        assert a.det() == laplace(a.to_rows())


def test_snf_identity():
    dec = smith_normal_form(IntMat.identity(2))
    assert dec.S == IntMat.identity(2)
    assert dec.diagonal() == (1, 1)


def test_snf_frozen_example():
    # minor-gcd oracle: gcd of entries 2, gcd of 2x2 minors |16-24| = 8,
    # so invariant factors are 2 and 8/2 = 4
    a = IntMat.from_rows([[2, 4], [6, 8]])
    dec = smith_normal_form(a)
    assert dec.diagonal() == (2, 4)
    assert (dec.U @ a @ dec.V) == dec.S


def test_snf_lattice_basis_example():
    for n in (2, 3, 5):
        dec = smith_normal_form(IntMat.from_rows([[1, 1], [0, n]]))
        assert dec.diagonal() == (1, n)


def test_snf_empty_and_degenerate_shapes():
    for rows, cols in [(0, 0), (0, 3), (3, 0), (1, 1)]:
        a = IntMat.zeros(rows, cols)
        dec = smith_normal_form(a)
        assert dec.S.rows == rows and dec.S.cols == cols
        assert (dec.U @ a @ dec.V) == dec.S
        assert dec.U.is_unimodular() and dec.V.is_unimodular()


def test_hnf_identity_and_fixed_points():
    h, u = hermite_normal_form(IntMat.identity(3))
    assert h == IntMat.identity(3)
    a = IntMat.from_rows([[1, 1], [0, 4]])
    h, u = hermite_normal_form(a)
    assert h == a
    assert u == IntMat.identity(2)


def test_hnf_row_reduction_example():
    a = IntMat.from_rows([[2, 0], [1, 1]])
    h, u = hermite_normal_form(a)
    assert h.to_rows() == [[1, 1], [0, 2]]
    assert (u @ a) == h
    assert u.is_unimodular()


def _hnf_shape_ok(h):
    pivots = []
    for i in range(h.rows):
        row = h.row(i)
        j = next((k for k, x in enumerate(row) if x), None)
        if j is None:
            continue
        assert not pivots or j > pivots[-1][1], "pivot columns must step right"
        assert row[j] > 0
        for above in range(i):
            assert 0 <= h.at(above, j) < row[j]
        pivots.append((i, j))
    # zero rows trail
    nonzero = [i for i in range(h.rows) if any(h.row(i))]
    assert nonzero == list(range(len(nonzero)))


def test_cokernel_examples():
    assert cokernel_invariants(IntMat.zeros(1, 1)) == (1, [])
    for n in (2, 4, 7):
        a = IntMat.from_rows([[1, 0], [1, n]])
        assert cokernel_invariants(a) == (0, [n])
    quadric_map = IntMat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]])
    assert cokernel_invariants(quadric_map) == (1, [])
    assert cokernel_invariants(IntMat.identity(3)) == (0, [])


def test_kernel_basis():
    a = IntMat.from_rows([[1, 1], [2, 2]])
    basis = kernel_basis(a)
    assert len(basis) == 1
    v = basis[0]
    assert a.mul_vector(v) == (0, 0)
    assert kernel_basis(IntMat.identity(3)) == []


def _random_unimodular(rng, n):
    """Product of elementary shears, swaps, and sign flips."""
    u = IntMat.identity(n).to_rows()
    for _ in range(2 * n + 2):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.randint(-3, 3)
            for t in range(n):
                u[i][t] += c * u[j][t]
        elif kind == 1:
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-x for x in u[i]]
    return IntMat.from_rows(u)


def test_certificates_and_divisibility_random():
    rng = random.Random(2024)
    for _ in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = IntMat(m, n, tuple(rng.randint(-50, 50) for _ in range(m * n)))
        dec = smith_normal_form(a)
        assert (dec.U @ a @ dec.V) == dec.S
        assert dec.U.is_unimodular() and dec.V.is_unimodular()
        diag = dec.diagonal()
        assert all(d >= 0 for d in diag)
        nonzero = [d for d in diag if d]
        assert list(diag[: len(nonzero)]) == nonzero, "zeros must trail"
        for x, y in zip(nonzero, nonzero[1:]):
            assert y % x == 0
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert dec.S.at(i, j) == 0
        h, u = hermite_normal_form(a)
        assert (u @ a) == h and u.is_unimodular()
        _hnf_shape_ok(h)


def determinantal_divisors(a: IntMat) -> list[int]:
    """gcd of all k-by-k minors for k = 1..min(rows, cols), stopping after
    the first zero.  Independent route to the invariant factors, used as a
    cross-check oracle; exponential in k, so small matrices only."""
    out = []
    for k in range(1, min(a.rows, a.cols) + 1):
        g = 0
        for ri in itertools.combinations(range(a.rows), k):
            for ci in itertools.combinations(range(a.cols), k):
                sub = IntMat.from_rows([[a.at(i, j) for j in ci] for i in ri])
                g = math.gcd(g, sub.det())
        out.append(g)
        if g == 0:
            break
    return out


def test_invariant_factors_match_minor_gcds():
    rng = random.Random(5)
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = IntMat(m, n, tuple(rng.randint(-50, 50) for _ in range(m * n)))
        diag = smith_normal_form(a).diagonal()
        prod = 1
        for k, g in enumerate(determinantal_divisors(a)):
            if g == 0:
                assert diag[k] == 0
                break
            prod *= diag[k]
            assert prod == g


def test_cokernel_invariant_under_unimodular_factors():
    rng = random.Random(99)
    for _ in range(150):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = IntMat(m, n, tuple(rng.randint(-30, 30) for _ in range(m * n)))
        base = cokernel_invariants(a)
        left = _random_unimodular(rng, m)
        right = _random_unimodular(rng, n)
        assert cokernel_invariants(left @ a @ right) == base


def test_snf_deterministic():
    a = IntMat.from_rows([[6, 10, 15], [10, 15, 6], [15, 6, 10]])
    first = smith_normal_form(a)
    second = smith_normal_form(a)
    assert first == second


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.data(),
)
def test_snf_certificate_property(m, n, data):
    entries = data.draw(
        st.lists(st.integers(-20, 20), min_size=m * n, max_size=m * n)
    )
    a = IntMat(m, n, tuple(entries))
    dec = smith_normal_form(a)
    assert (dec.U @ a @ dec.V) == dec.S
    assert abs(dec.U.det()) == 1 and abs(dec.V.det()) == 1
