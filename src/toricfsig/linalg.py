"""Exact integer linear algebra: Hermite and Smith normal forms with
unimodular certificates, and integer kernels.

Everything runs on Python's arbitrary-precision integers.  Determinism
matters downstream (class-group normal forms are compared syntactically),
so pivot selection follows a fixed rule: smallest nonzero absolute value,
ties broken by row index then column index.
"""

from __future__ import annotations

from .record import Record


class IntMat(Record):
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __init__(self, rows: int, cols: int, entries: tuple[int, ...]):
        # made by the thousand: skips Record's generic argument binding
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows) -> "IntMat":
        rows = [list(r) for r in rows]
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), n, tuple(int(x) for r in rows for x in r))

    @classmethod
    def identity(cls, n: int) -> "IntMat":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMat":
        return cls(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> tuple[int, ...]:
        return self.entries[j :: self.cols] if self.cols else ()

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMat":
        return IntMat(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: "IntMat") -> "IntMat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                cj = other.col(j)
                out.append(sum(a * b for a, b in zip(ri, cj)))
        return IntMat(self.rows, other.cols, tuple(out))

    def mul_vector(self, v) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(
            sum(a * b for a, b in zip(self.row(i), v)) for i in range(self.rows)
        )

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
                if pivot is None:
                    return 0
                a[k], a[pivot] = a[pivot], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and abs(self.det()) == 1

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.at(i, i) for i in range(min(self.rows, self.cols)))


class SmithDecomposition(Record):
    """Certificate (U, S, V) with U*A*V = S, U and V unimodular, S diagonal
    with nonnegative entries in a divisibility chain, zeros trailing."""

    U: IntMat
    S: IntMat
    V: IntMat

    def diagonal(self) -> tuple[int, ...]:
        return self.S.diagonal()


def _find_pivot(s, k, m, n):
    """Position of the smallest nonzero |entry| in the trailing block,
    scanning rows before columns so the choice is deterministic."""
    best = None
    best_val = None
    for i in range(k, m):
        row = s[i]
        for j in range(k, n):
            v = abs(row[j])
            if v and (best_val is None or v < best_val):
                best, best_val = (i, j), v
                if v == 1:
                    return best
    return best


def smith_normal_form(a: IntMat) -> SmithDecomposition:
    """Smith normal form over the integers.

    Returns (U, S, V) with U*A*V = S exactly.  Works for any shape,
    including empty matrices.  Deterministic for a fixed input.
    """
    m, n = a.rows, a.cols
    s = a.to_rows()
    u = IntMat.identity(m).to_rows()
    v = IntMat.identity(n).to_rows()

    def row_op(i, j, q):
        # row_i -= q * row_j on S and U
        si, sj = s[i], s[j]
        for t in range(n):
            si[t] -= q * sj[t]
        ui, uj = u[i], u[j]
        for t in range(m):
            ui[t] -= q * uj[t]

    def col_op(i, j, q):
        # col_i -= q * col_j on S and V
        for r in s:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in s:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def flip_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    for k in range(min(m, n)):
        while True:
            pos = _find_pivot(s, k, m, n)
            if pos is None:
                break
            if pos[0] != k:
                swap_rows(pos[0], k)
            if pos[1] != k:
                swap_cols(pos[1], k)
            if s[k][k] < 0:
                flip_row(k)
            pivot = s[k][k]
            dirty = False
            for i in range(k + 1, m):
                if s[i][k]:
                    q = s[i][k] // pivot
                    row_op(i, k, q)
                    if s[i][k]:
                        dirty = True
            for j in range(k + 1, n):
                if s[k][j]:
                    q = s[k][j] // pivot
                    col_op(j, k, q)
                    if s[k][j]:
                        dirty = True
            if dirty:
                continue
            # pivot now alone in its row and column; enforce divisibility
            # of the whole trailing block so the chain comes out sorted
            offender = None
            for i in range(k + 1, m):
                for j in range(k + 1, n):
                    if s[i][j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(k, offender, -1)  # fold offending row into the pivot row
        if _find_pivot(s, k, m, n) is None:
            break

    return SmithDecomposition(
        IntMat.from_rows(u) if m else IntMat.zeros(0, 0),
        IntMat.from_rows(s) if m else IntMat.zeros(0, n),
        IntMat.from_rows(v) if n else IntMat.zeros(n, n),
    )


def hermite_normal_form(a: IntMat) -> tuple[IntMat, IntMat]:
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular, U*A = H, pivots positive, entries
    above each pivot reduced into [0, pivot), zero rows last.
    """
    m, n = a.rows, a.cols
    h = a.to_rows()
    u = IntMat.identity(m).to_rows()

    def row_op(i, j, q):
        hi, hj = h[i], h[j]
        for t in range(n):
            hi[t] -= q * hj[t]
        ui, uj = u[i], u[j]
        for t in range(m):
            ui[t] -= q * uj[t]

    r = 0
    for j in range(n):
        if r == m:
            break
        # clear the column below r by repeated division with remainder
        while True:
            cand = [(abs(h[i][j]), i) for i in range(r, m) if h[i][j]]
            if not cand:
                break
            _, i0 = min(cand)
            if i0 != r:
                h[i0], h[r] = h[r], h[i0]
                u[i0], u[r] = u[r], u[i0]
            done = True
            for i in range(r + 1, m):
                if h[i][j]:
                    row_op(i, r, h[i][j] // h[r][j])
                    if h[i][j]:
                        done = False
            if done:
                break
        if r < m and h[r][j]:
            if h[r][j] < 0:
                h[r] = [-x for x in h[r]]
                u[r] = [-x for x in u[r]]
            for i in range(r):
                q = h[i][j] // h[r][j]
                if q:
                    row_op(i, r, q)
            r += 1

    H = IntMat.from_rows(h) if m else IntMat.zeros(0, n)
    U = IntMat.from_rows(u) if m else IntMat.zeros(0, 0)
    return H, U


def kernel_basis(a: IntMat) -> list[tuple[int, ...]]:
    """Basis of the integer kernel {x : a*x = 0}, as column vectors of the
    Smith certificate V past the rank."""
    dec = smith_normal_form(a)
    rank = sum(1 for d in dec.diagonal() if d)
    return [dec.V.col(j) for j in range(rank, a.cols)]

