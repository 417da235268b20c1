"""Decomposition of F^e_* R(D) into divisorial summands.

For q = p^e the pushforward of a divisorial module along e Frobenius
iterations splits into one summand per coset of L in (1/q)L, and the summand
attached to a coset representative w is the divisorial module of the divisor
with coefficients floor(facet_i(w) + a_i/q).  Everything here reduces to
integer arithmetic: writing w in lattice coordinates c/q, the coefficient is
(c . g_i + a_i) // q with g_i the integer facet pairings of the basis.

The coset space has q^d elements and dominates the runtime of the whole
package, so neither job visits the cosets one by one.  With all coordinates
but one fixed, each facet floor is a step function of the remaining one, t,
so a row in t splits into runs of constant summand.  ``_row_scanner``
finds where the floors move along a row for both jobs, per facet and
residue mod q from a table of at most min(|g_i|, q - 1) keys, one per t in
(0, q) where the floor moves.  One function does each job, in Python ints:

- ``decompose`` counts.  It reduces the base divisor to 0 <= r < q first
  (a = q*k + r shifts every summand by k, hence every class by the class
  of k), and ``_plane_runs`` turns the floors into class counts.  It fixes
  all coordinates but t and a second one, s, and splits the s-axis where
  the order of the floor steps along t changes.  Inside one s-interval the
  total length of a run is a difference of two floor sums of O(log) steps
  each (``_floor_sum``), so its work stops growing with q once q passes the
  number of splits.  When the splits could number q, and in d = 1, it
  scans every row instead, adding each jump to a class code.
- ``coset_rows`` lists.  It scans every row, last coordinate innermost,
  moving a floor vector by the jumps, and yields one block per prefix row:
  the start and step of each representative numerator along the row, and
  its runs as (length, floors), floors a tuple of ints.  It takes no
  classes and holds one row's runs at a time, never q^d rows.

The box oracle counts the semigroup points of the bounding box of qP a line
at a time, with no cosets and no classes, so it checks the free rank
independently of the counter.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import warnings

from .caps import CAP_ENV_VAR, CapExceededError, check_cap, resolve_cap
from .record import Record
from .divisors import ClassElement, WeilDivisor, class_group, class_of
from .rings import RingSpec, is_prime


class FrobeniusContext(Record):
    """Characteristic p, iteration count e, and q = p^e."""

    p: int
    e: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.e < 1:
            raise ValueError("e must be at least 1")

    @property
    def q(self) -> int:
        return self.p**self.e


class FrobeniusDecomposition(Record):
    """The summands of F^e_* R(D): normal-form class -> multiplicity, in
    order of (free, torsion) coordinates."""

    spec: RingSpec
    ctx: FrobeniusContext
    base_divisor: WeilDivisor
    summands: dict[ClassElement, int]

    @property
    def rank(self) -> int:
        return self.ctx.q ** self.spec.dim


def _coset_space(spec: RingSpec, divisor: WeilDivisor, ctx: FrobeniusContext, cap) -> int:
    """q, once the divisor length is checked and q^d is within the cap."""
    if len(divisor) != spec.num_facets:
        raise ValueError("divisor length does not match facet count")
    d = spec.dim
    cap = resolve_cap(cap)
    if ctx.e * d > cap.bit_length():
        # q^d >= 2^(e*d) > cap, decided before q^d is formed: its digits
        # alone can take seconds to build and cannot be printed
        raise CapExceededError(
            f"coset enumeration for q^d = ({ctx.p}^{ctx.e})^{d} needs at "
            f"least 2^{ctx.e * d} points, over the cap of {cap}; "
            f"raise it with --cap or {CAP_ENV_VAR}"
        )
    q = ctx.q
    check_cap(q**d, cap, f"coset enumeration for q^d = {q}^{d}")
    return q


def decompose(
    spec: RingSpec,
    divisor: WeilDivisor,
    ctx: FrobeniusContext,
    *,
    cap: int | None = None,
) -> FrobeniusDecomposition:
    """Summand classes of F^e_* R(D), counted with multiplicity.

    The result maps each normal-form class to the number of cosets whose
    summand divisor lands in that class; multiplicities always add up to
    q^d.  A trivial class group forces the multiset, and ``_plane_runs``
    counts every other one; ``coset_rows`` lists the cosets themselves.
    """
    q = _coset_space(spec, divisor, ctx, cap)
    cg = class_group(spec)
    if cg.projection.rows == 0:
        # trivial class group: every summand projects to the empty normal
        # form, so the multiset is forced without enumerating
        return FrobeniusDecomposition(spec, ctx, divisor, {cg.zero(): q**spec.dim})
    # a = q*k + r with 0 <= r < q: floor((x + q*k)/q) = k + floor(x/q),
    # so every summand of a is the summand of r plus k
    k = tuple(a // q for a in divisor.coeffs)
    r = tuple(a % q for a in divisor.coeffs)
    counts = _plane_runs(r, q, cg, spec.pairings)
    nfree = cg.free_rank
    shift = class_of(cg, WeilDivisor(k))
    if not shift.is_zero:
        # a translation of the group: the keys stay distinct
        s = shift.free + shift.torsion
        mods = (None,) * nfree + cg.invariant_factors
        counts = {
            tuple(x + y if m is None else (x + y) % m for x, y, m in zip(key, s, mods)): n
            for key, n in counts.items()
        }
    # the keys are free + torsion, so their order is that of (free, torsion)
    summands = {ClassElement(key[:nfree], key[nfree:]): n for key, n in sorted(counts.items())}
    return FrobeniusDecomposition(spec, ctx, divisor, summands)


def coset_rows(
    spec: RingSpec,
    divisor: WeilDivisor,
    ctx: FrobeniusContext,
    *,
    cap: int | None = None,
):
    """The cosets of L in (1/q)L, c in [0, q)^d in lexicographic order, one
    block per prefix row c' of all coordinates but the last, t.  A block is
    a pair (numerators, runs): per coordinate of the representative c.B/q,
    B the lattice basis, the start and step of its numerator c.B along t;
    and the runs of t in order as pairs (length, floors), floors the tuple
    of summand divisor coefficients floor((c.g_i + a_i) / q).  The divisor
    length and the cap are checked at the call, before any block.

    Facet i takes the value base_i + g_i*t along a block, and its floor over
    q moves at no more than min(|g_i|, q - 1) values of t, found from
    base_i mod q.  A consumer that keeps no block holds O(q) objects, not
    q^d.
    """
    q = _coset_space(spec, divisor, ctx, cap)
    return _coset_runs(spec, divisor.coeffs, q)


def memo_limit(q: int) -> int:
    """Entries of the --detail writer's numerator memo at q: a prefix row
    has up to q numerators per coordinate, and the memo holds 16 such rows
    and never fewer than 4096 entries, O(q) at any basis entry.  The
    (n + 1)q numerators of xy = z^n, which recur only every n rows, fit for
    n < 16."""
    return max(4096, 16 * q)


def numerator_memo(make, q: int, dim: int):
    """n -> make(n) for the numerators of a listing at q in dimension dim.
    In d >= 2 numerators repeat across prefix rows, and each is made once
    while a ``_Memo`` of ``memo_limit(q)`` entries holds it; in d = 1 the one
    prefix row has q distinct numerators, and none is kept."""
    return _Memo(make, memo_limit(q)).__getitem__ if dim > 1 else make


class _Memo(dict):
    """key -> make(key), made once per key, emptied on reaching ``limit``."""

    def __init__(self, make, limit: int):
        super().__init__()
        self.make = make
        self.limit = limit

    def __missing__(self, key):
        if len(self) >= self.limit:
            self.clear()
        value = self[key] = self.make(key)
        return value


def _coset_runs(spec: RingSpec, a, q: int):
    """The blocks of ``coset_rows``.

    One vector carries the facet values at t = 0 and the numerators' starts
    from row to row, and the runs start at the keys of ``_row_scanner``,
    which move a floor vector from one run to the next."""
    grows = spec.pairings
    m = len(grows)
    keys, shift, mask, steps = _row_scanner(q, [row[-1] for row in grows])
    *b_out, b_in = spec.lattice.basis.to_rows()
    moves = [[row[k] for row in grows] + b_out[k] for k in range(spec.dim - 1)]
    for row in _affine_rows([*a, *[0] * spec.dim], moves, q):
        # row: the facet values at t = 0, then the numerator starts
        floors = [v // q for v in row[:m]]
        runs = []
        before = 0
        for key in keys(row):
            t = key >> shift
            if t != before:
                runs.append((t - before, tuple(floors)))
                before = t
            i, jump = steps[key & mask]
            floors[i] += jump
        runs.append((q - before, tuple(floors)))
        yield list(zip(row[m:], b_in)), runs


def _row_scanner(q: int, g):
    """(keys, shift, mask, steps) for the column g of G along t: ``keys(row)``
    sorts the keys of ``_cuts`` for the facet values at t = 0, the key
    j = 2*i + b has steps[j] = (i, g_i // q + b), and a facet keeps its
    tables per residue up to about 2^16 keys, never q^2 keys at a large q."""
    shift = (2 * len(g)).bit_length()
    tables = [
        (i, _Memo(functools.partial(_cuts, q, gi, shift, 2 * i), 1 + 2**16 // min(abs(gi), q)))
        for i, gi in enumerate(g) if gi
    ]

    def keys(row) -> list:
        out = []
        for i, table in tables:
            out += table[row[i] % q]
        out.sort()
        return out

    steps = [(j >> 1, g[j >> 1] // q + (j & 1)) for j in range(2 * len(g))]
    return keys, shift, (1 << shift) - 1, steps


def _cuts(q: int, g: int, shift: int, j: int, rem: int) -> list:
    """The keys t << shift | j + b of the t in (0, q) where
    floor((rem + g*t) / q) moves, by g // q + b with b in {0, 1}, in order
    of t, for g != 0 and 0 <= rem < q.  A key stands for the whole jump at
    its t, so there are at most min(|g|, q - 1) keys."""
    if 0 < g < q:
        # up by 1 where rem + g*t reaches a multiple of q
        return [-(-x // g) << shift | j + 1 for x in range(q - rem, g * (q - 1) + 1, q)]
    if -q <= g < 0:
        # down by 1 where it falls below one
        return [(x // -g + 1) << shift | j for x in range(rem, -g * (q - 1), q)]
    # |g| >= q: a jump at every t, of g // q plus that of g mod q
    g %= q
    return [t << shift | j + (rem + g * t) // q - (rem + g * t - g) // q for t in range(1, q)]


def _affine_rows(start, moves, q: int):
    """start + c.moves for c in [0, q)^k in lexicographic order, k the
    number of moves, as lists."""
    if not moves:
        yield start
        return
    *outer, move = moves
    for row in _affine_rows(start, outer, q):
        for _ in range(q):
            yield row
            row = list(map(operator.add, row, move))


def _floor_sum(n, m, a, b) -> int:
    """sum_{u=0}^{n-1} floor((a*u + b) / m) for n >= 0 and m >= 1.

    Euclid-like reciprocity halves the problem each step, so this takes
    O(log m) steps (Graham, Knuth and Patashnik, Concrete Mathematics,
    section 3.5; the ``floor_sum`` of the AtCoder Library)."""
    if m == 1:
        return a * (n * (n - 1) // 2) + b * n
    total = 0
    while True:
        if not 0 <= a < m:
            qa, a = divmod(a, m)
            total += qa * (n * (n - 1) // 2)
        if not 0 <= b < m:
            qb, b = divmod(b, m)
            total += qb * n
        top = a * n + b
        if top < m:
            return total
        n, b = divmod(top, m)
        m, a = a, m


def _crossings(g, h) -> list:
    """The facet pairs (i, j, sign, det, gcd(g_i, g_j)) whose lines in the
    plane of t (column g of G) and s (column h) cross,
    det = sign * (g_j*h_i - g_i*h_j) > 0."""
    pairs = []
    for i, j in itertools.combinations(range(len(g)), 2):
        det = g[j] * h[i] - g[i] * h[j]
        if g[i] and g[j] and det:
            sign = 1 if det > 0 else -1
            pairs.append((i, j, sign, det * sign, math.gcd(g[i], g[j])))
    return pairs


def _split_bound(g, h, pairs) -> int:
    """A bound on the splits of any outer row past s = 0: two per crossing
    of two lines, and the floor steps at t = 0 and t = q - 1, for any q."""
    crossings = sum(det // step + 1 for *_, det, step in pairs)
    window = sum((abs(hi) + 1) * (2 if gi else 1) for gi, hi in zip(g, h))
    return 2 * crossings + window


def _plane_splits(b, q, g, h, pairs) -> list:
    """The sorted first values of the s-intervals of one outer row: where a
    floor at t = 0 or t = q - 1 changes, and on both sides of each crossing
    of two lines, an integer crossing getting an interval of its own."""
    span = q - 1
    starts = {0}
    for i, hi in enumerate(h):
        for base in (b[i], b[i] + g[i] * span) if g[i] else (b[i],):
            low, high = base // q, (base + hi * span) // q
            if hi > 0:
                starts.update((k * q - base - 1) // hi + 1 for k in range(low + 1, high + 1))
            elif hi < 0:
                starts.update((base - k * q) // -hi + 1 for k in range(high + 1, low + 1))
    for i, j, sign, det, step in pairs:
        # line k_i of i and line k_j of j cross at s = (q*k + c) / det,
        # k = sign * (g_j*k_i - g_i*k_j), a multiple of gcd(g_i, g_j)
        c = sign * (g[i] * b[j] - g[j] * b[i])
        first = -(c // q)
        first += -first % step
        for k in range(first, (det * span - c) // q + 1, step):
            top = q * k + c
            starts.add(top // det + 1)
            starts.add(-(-top // det))
    starts.discard(q)
    return sorted(starts)


def _plane_runs(r, q, cg, grows) -> dict:
    """Class coordinates of the cosets c in [0, q)^d, counted with
    multiplicity, for a base divisor r with 0 <= r_i < q.

    The column g of G with the least absolute sum is t.  Along a row in t,
    facet i takes the value b_i + g_i*t, and ``_row_scanner`` gives the t
    where its floor over q moves and the jumps; a run's class is the class
    at t = 0 plus the jumps before it times the columns of the class
    projection.  It scans the one row in d = 1, and every row when the
    s-axis below could split at every s: finer intervals are as exact.

    Otherwise the next column h is s, and facet i takes the value
    v_i = b_i + h_i*s + g_i*t on the square [0, q)^2 of an outer row.  Its
    floor over q steps at the lines v_i = k*q: along t, a line with g_i > 0
    is passed from t = ceil(x) on and one with g_i < 0 from t = floor(x) + 1
    on, x = (k*q - b_i - h_i*s) / g_i.  The s-axis is split where two lines
    cross (an integer crossing gets an interval of its own) and where a
    floor at t = 0 or t = q - 1 changes (``_plane_splits``).  Inside one
    interval the lines strictly inside the window keep their order, that of
    x at its first s, so the run between two adjacent lines keeps one floor
    vector, and its total length over the interval is a difference of two
    floor sums.  Only coincident lines tie there, and their floor sums put
    a ceil line before a floor + 1 one.  Crossing a line adds its column of
    the class projection for g_i > 0 and subtracts it for g_i < 0.

    While counting, a class is one integer code, sum_j coordinate_j * R^j
    with each coordinate in (-R/2, R/2) and torsion coordinates not yet
    reduced, so that a jump is one addition; ``_decode`` turns the codes
    into coordinates.
    """
    t_col, *rest = sorted(range(len(grows[0])), key=lambda j: sum(abs(row[j]) for row in grows))
    g = [row[t_col] for row in grows]
    moves = [[row[j] for row in grows] for j in rest]
    cols, radix = _column_codes(cg, grows)
    counts: dict[int, int] = {}
    pairs = _crossings(g, moves[0]) if moves else []
    if not moves or _split_bound(g, moves[0], pairs) >= q:
        keys, shift, mask, steps = _row_scanner(q, g)
        jumps = [jump * cols[i] for i, jump in steps]
        for b in _affine_rows(list(r), moves, q):
            code = 0
            for v, col in zip(b, cols):
                code += v // q * col
            before = 0
            for key in keys(b):
                t = key >> shift
                if t != before:
                    counts[code] = counts.get(code, 0) + t - before
                    before = t
                code += jumps[key & mask]
            counts[code] = counts.get(code, 0) + q - before
        return _decode(counts, cg, radix)
    h = moves[0]
    lcm = math.lcm(*(x for x in g if x))
    span = q - 1
    # a line sorts by lcm * x at the first s of an interval
    lines = [(i, gi, h[i], lcm // gi, cols[i] if gi > 0 else -cols[i])
             for i, gi in enumerate(g) if gi]
    for b in _affine_rows(list(r), moves[1:], q):
        starts = _plane_splits(b, q, g, h, pairs)
        for lo, end in zip(starts, [*starts[1:], q]):
            code = 0
            for v, hi, col in zip(b, h, cols):
                code += (v + hi * lo) // q * col
            n = end - lo
            found = []
            for i, gi, hi, scale, col in lines:
                v = b[i] + hi * lo
                low, high = v // q, (v + gi * span) // q
                if gi > 0:
                    for k in range(low + 1, high + 1):
                        x = k * q - v
                        found.append((x * scale, _floor_sum(n, gi, -hi, x + gi - 1), col))
                else:
                    for k in range(high + 1, low + 1):
                        x = k * q - v
                        found.append((x * scale, _floor_sum(n, -gi, hi, -x) + n, col))
            found.sort()
            before = 0
            for _, total, col in found:
                if total != before:
                    counts[code] = counts.get(code, 0) + total - before
                    before = total
                code += col
            counts[code] = counts.get(code, 0) + q * n - before
    return _decode(counts, cg, radix)


def _column_codes(cg, grows):
    """Per facet the code of its column of the class projection, and the
    radix R of the codes.

    Floors stay within sum_j |G_ij| + 1 of zero when 0 <= r < q, so every
    class coordinate of a floor vector stays within ``bound`` of zero, and
    R = 2^shift > 2*bound + 1 keeps the coordinates of one code apart."""
    rows = cg.projection.to_rows()
    floor_bound = [sum(map(abs, row)) + 1 for row in grows]
    bound = max(
        (sum(abs(x) * f for x, f in zip(row, floor_bound)) for row in rows), default=0
    )
    shift = (2 * bound + 2).bit_length()
    cols = [sum(row[i] << k * shift for k, row in enumerate(rows)) for i in range(len(grows))]
    return cols, 1 << shift


def _decode(counts, cg, radix) -> dict:
    """The class keys (free coordinates, torsion coordinates reduced) of
    code -> multiplicity ``counts``, merged."""
    mods = cg.invariant_factors
    nfree = cg.free_rank
    ncoords = cg.projection.rows
    half = radix // 2
    offset = sum(half * radix**k for k in range(ncoords))
    out: dict[tuple, int] = {}
    for code, n in counts.items():
        rest = code + offset
        key = []
        for k in range(ncoords):
            rest, digit = divmod(rest, radix)
            key.append(digit - half)
        key[nfree:] = [x % mod for x, mod in zip(key[nfree:], mods)]
        key = tuple(key)
        out[key] = out.get(key, 0) + n
    return out


def free_rank(dec: FrobeniusDecomposition) -> int:
    """Multiplicity of the trivial class; this is a_e(R) when the base
    divisor is principal, and only then."""
    cg = class_group(dec.spec)
    if not class_of(cg, dec.base_divisor).is_zero:
        warnings.warn(
            "base divisor class is nonzero; free rank is not a_e(R) here",
            stacklevel=2,
        )
    return dec.summands.get(cg.zero(), 0)


def multiplicity_of(dec: FrobeniusDecomposition, c: ClassElement) -> int:
    return dec.summands.get(c, 0)


def simultaneous_torsion_count(dec: FrobeniusDecomposition) -> int:
    """Total multiplicity over all torsion classes, those with no free
    part: at most q^d, with equality exactly when the class group is
    finite."""
    return sum(n for c, n in dec.summands.items() if not any(c.free))


def box_count_oracle(
    spec: RingSpec, ctx: FrobeniusContext, cap: int | None = None
) -> int:
    """Number of semigroup elements with every facet value below q.

    Counts lattice points directly, with no cosets, floors over q, or class
    projections anywhere: this is the monomial count of R modulo the q-th
    powers of the ambient variables when the ring is embedded facet-by-facet,
    and it independently reproduces the free rank of the coset decomposition.
    In lattice coordinates the points are the c in Z^d with 0 <= Gc < q, so
    the oracle covers the bounding box of qP, P = {c : 0 <= Gc <= 1} with
    the vertex rays of ``spec.unit_region``, one line along its widest
    coordinate t at a time: with the other coordinates fixed, each facet
    b_i + g_i*t in [0, q) cuts t to an interval, and the line adds the
    length of their intersection.  The cap bounds the number of lines.
    """
    q = ctx.q
    rays = [ray for ray, _ in spec.unit_region[0]]
    if not rays:
        raise RuntimeError("facet region has no vertices; spec is invalid")
    # a ray is (c*t, t) for the vertex c: ceil(c_k*q) and floor(c_k*q)
    ranges = [
        range(min(-(-r[k] * q // r[-1]) for r in rays), max(r[k] * q // r[-1] for r in rays) + 1)
        for k in range(spec.dim)
    ]
    t = max(range(spec.dim), key=lambda k: len(ranges[k]))
    t_range = ranges.pop(t)
    lines = math.prod(map(len, ranges))
    check_cap(lines, resolve_cap(cap), "bounding-box enumeration", "lines")
    facets = [(row[t], row[:t] + row[t + 1 :]) for row in spec.pairings]
    count = 0
    for c in itertools.product(*ranges):
        lo, hi = t_range.start, t_range.stop - 1
        for g, rest in facets:
            b = sum(map(operator.mul, rest, c))
            # 0 <= b + g*t <= q - 1
            if g > 0:
                lo = max(lo, -(b // g))
                hi = min(hi, (q - 1 - b) // g)
            elif g < 0:
                lo = max(lo, -((q - 1 - b) // -g))
                hi = min(hi, b // -g)
            elif not 0 <= b < q:
                break
            if lo > hi:
                break
        else:
            count += hi - lo + 1
    return count
