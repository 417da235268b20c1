"""Decomposition of F^e_* R(D) into divisorial summands.

For q = p^e the pushforward of a divisorial module along e Frobenius
iterations splits into one summand per coset of L in (1/q)L, and the summand
attached to a coset representative w is the divisorial module of the divisor
with coefficients floor(facet_i(w) + a_i/q).  Everything here reduces to
integer arithmetic: writing w in lattice coordinates c/q, the coefficient is
(c . g_i + a_i) // q with g_i the integer facet pairings of the basis.

The coset space has q^d elements and dominates the runtime of the whole
package, so no kernel visits the cosets one by one.  The base divisor is
first reduced to 0 <= r < q (a = q*k + r shifts every summand by k, hence
every class by the class of k).  With all coordinates but one fixed, each
facet floor is a step function of the remaining one, t, with at most |g_i|
steps, so a prefix row splits into at most K + 1 runs of constant summand,
K being the absolute sum of t's column of G.  Three kernels count those
runs:

- ``_plane_runs``, pure Python integers, fixes all coordinates but t and a
  second one, s, and splits the s-axis where the order of the floor steps
  along t changes.  Inside one s-interval the total length of a run is a
  difference of two floor sums of O(log) steps each (``_floor_sum``), so
  its work stops growing with q once q passes the number of splits.
- ``_walk_runs``, pure Python integers, visits the runs one prefix row at
  a time and adds each run's class weighted by its length, projecting each
  new floor vector with the rows of the class projection and keeping its
  class in a bounded cache.  A plain count takes the least-K column
  innermost; with ``detail`` the walk keeps lexicographic order, the last
  coordinate innermost, and lists every coset, with one shared summand
  divisor per floor vector and one shared Fraction per distinct
  representative numerator.
- ``_count_runs``, numpy int64, takes the column with the least K innermost
  and tallies the class at each run start weighted by the run length, for
  about q^(d-1) * min(q, 1 + K) runs.  Chunked merging is commutative, so
  the multiset is identical under any partition of the prefix rows.

One decision function, ``_plain_kernel``, picks the kernel of a plain
count; ``detail`` always takes the walk.  The walk costs its run count.  A
count whose values fit int64 (``_coset_values_fit_int64``) takes the numpy
kernel when numpy is already loaded or the walk has more than
``_NUMPY_RUNS`` = 2^15 runs: the constant weighs the numpy import, about
55-65 ms of a fresh process on a 2-core x86-64 host with Python 3.11 and
numpy 2.4, against the walk's rate of about 440,000 runs per second there,
and numpy then counts about ``_NUMPY_GAIN`` runs in the time of one walk
run.  The plane takes the count instead when its estimate, ``_plane_work``
in walk runs, is below the cost of the kernel that rule picks, the import
included.  So sparse counts, whose splits are few, take the plane, and the
dense ones, a dense G at small q where most s-intervals hold one value,
stay with the walk or numpy.  Callers with several counts, ``run_corpus``
and ``signature_sequence``, ask ``choose_kernel`` about all of them first:
it asks ``_plain_kernel`` and imports numpy up front when one count will
need it, so that the counts before that one do not walk.

numpy is imported inside ``choose_kernel``, ``_count_runs``,
``_tally_rows``, ``_grid_blocks`` and ``box_count_oracle`` only, so
commands that count nothing, count few or sparse runs, ask for the detail
or overflow int64 never load it; no count of ``verify --corpus`` does.  The
box oracle walks the numpy grid of ``_grid_blocks`` over the bounding box
of qP in lattice coordinates.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import sys
import warnings
from fractions import Fraction

from .record import Record
from .divisors import (
    ENUMERATION_CAP,
    CapExceededError,
    ClassElement,
    ClassGroupData,
    WeilDivisor,
    class_group,
    class_of,
    torsion_elements,
)
from .rings import RingSpec, is_prime, pairing_matrix, unit_region_vertices

CAP_ENV_VAR = "TORICFSIG_CAP"
DEFAULT_CHUNK = 1 << 19
_INT64_SAFE = 1 << 62
_WALK_CACHE = 1 << 16  # floor vectors whose class the run walk keeps
_NUMPY_RUNS = 1 << 15  # runs above which a plain count pays the numpy import
_NUMPY_GAIN = 16  # runs the numpy kernel counts in the time of one walk run
_PLANE_UNITS = 4  # units of plane work done in the time of one walk run


def resolve_cap(cap: int | None) -> int:
    """Explicit cap, else the environment override, else the default; a
    negative cap, or an override that is not an integer, is bad input."""
    source = "--cap"
    if cap is None:
        env = os.environ.get(CAP_ENV_VAR)
        if not env:
            return ENUMERATION_CAP
        source = CAP_ENV_VAR
        try:
            cap = int(env)
        except ValueError:
            raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {env!r}") from None
    if cap < 0:
        raise ValueError(f"{source} must be at least 0, got {cap}")
    return cap


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
    spec: RingSpec
    ctx: FrobeniusContext
    base_divisor: WeilDivisor
    summands: dict[ClassElement, int]
    detail: tuple | None = None

    @property
    def rank(self) -> int:
        return self.ctx.q ** self.spec.dim


def _check_cap(count: int, cap: int, what: str) -> None:
    if count > cap:
        raise CapExceededError(
            f"{what} needs {count} points, over the cap of {cap}; "
            f"raise it with --cap or {CAP_ENV_VAR}"
        )


def _projection_split(cg: ClassGroupData):
    f = cg.free_rank
    rows = cg.projection.to_rows()
    return rows[:f], rows[f:], list(cg.invariant_factors)


def decompose(
    spec: RingSpec,
    divisor: WeilDivisor,
    ctx: FrobeniusContext,
    *,
    detail: bool = False,
    cap: int | None = None,
    chunk_size: int = DEFAULT_CHUNK,
) -> FrobeniusDecomposition:
    """Summand classes of F^e_* R(D), counted with multiplicity.

    The result maps each normal-form class to the number of cosets whose
    summand divisor lands in that class; multiplicities always add up to
    q^d.  With ``detail`` the per-coset pairs (representative, summand
    divisor) are kept, representatives being the lattice basis combinations
    with coefficients in [0, q)^d over q, in lexicographic coefficient
    order.  A plain count takes the kernel that ``_plain_kernel`` picks;
    the numpy kernel counts in blocks of at most ``chunk_size`` prefix rows
    times runs per row, and ``detail`` takes the walk, which has no blocks,
    nor has the plane.  Neither the kernel nor the size changes the result.
    """
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
    total = q**d
    _check_cap(total, cap, f"coset enumeration for q^d = {q}^{d}")
    cg = class_group(spec)
    g = pairing_matrix(spec)
    # a = q*k + r with 0 <= r < q: floor((x + q*k)/q) = k + floor(x/q),
    # so every summand of a is the summand of r plus k
    k = tuple(a // q for a in divisor.coeffs)
    r = tuple(a % q for a in divisor.coeffs)

    rows = None
    if cg.projection.rows == 0 and not detail:
        # trivial class group: every summand projects to the empty normal
        # form, so the multiset is forced without enumerating
        summands = {cg.zero(): total}
    else:
        grows = g.to_rows()
        if detail:
            counts, rows = _walk_runs(r, q, cg, grows, (k, spec.lattice.basis))
        else:
            kernel = _plain_kernel(q, g, lambda: cg, "numpy" in sys.modules)
            if kernel == "plane":
                counts = _plane_runs(r, q, cg, grows)
            elif kernel == "runs":
                counts = _count_runs(r, q, cg, g, chunk_size)
            else:
                counts, _ = _walk_runs(r, q, cg, grows)
        shift = class_of(cg, WeilDivisor(k))
        nfree = cg.free_rank
        shifted = [
            (cg.add(ClassElement(key[:nfree], key[nfree:]), shift), n)
            for key, n in counts.items()
        ]
        summands = dict(sorted(shifted, key=lambda kv: (kv[0].free, kv[0].torsion)))
    return FrobeniusDecomposition(spec, ctx, divisor, summands, rows)


def choose_kernel(
    spec: RingSpec,
    p: int,
    e_max: int,
    q_max: int | None = None,
    cap: int | None = None,
) -> None:
    """Import numpy now if a plain count of ``spec`` at q = p^e, e =
    1..e_max, q <= ``q_max`` and q^d within the cap, will need it.

    ``decompose`` chooses its kernel per call with ``_plain_kernel``, and
    once numpy is loaded every plain count that fits int64 and does not
    take the plane takes ``_count_runs``.  A caller that asks here about
    all of its counts before its first count thus counts on one kernel
    throughout, where choosing per call would walk its small counts and
    then pay the import for a large one anyway.  A count that
    ``decompose`` would refuse decides nothing, and neither does a loaded
    numpy; the class group is looked up only for a count of more than
    ``_NUMPY_RUNS`` runs that the plane does not take.
    """
    if "numpy" in sys.modules:
        return
    try:
        if not is_prime(p):
            return
        cap = resolve_cap(cap)
        d = spec.dim
        g = pairing_matrix(spec)
        if not g.rows:
            return
        class_data = functools.cache(lambda: class_group(spec))
        for e in range(1, e_max + 1):
            # e*d first, so that p^(e*d) is formed only when it may fit
            if e * d > cap.bit_length() or p ** (e * d) > cap or (
                q_max is not None and p**e > q_max
            ):
                return
            if _plain_kernel(p**e, g, class_data) == "runs":
                break
        else:
            return
        if not class_data().projection.rows:
            return
    except ValueError:
        return
    import numpy  # noqa: F401


def _plain_kernel(q, g, class_data, numpy_loaded=False) -> str:
    """The kernel of a plain count at q: "plane", "runs" or "walk".

    The walk's cost is its run count, ``_run_count``.  The numpy rule sends
    a count to ``_count_runs`` when its values fit int64 and numpy is loaded
    or the walk has more than ``_NUMPY_RUNS`` runs; that costs about one
    walk run per ``_NUMPY_GAIN`` runs, plus ``_NUMPY_RUNS`` for the import
    when numpy is not loaded yet.  The plane takes the count when its own
    estimate, ``_plane_work``, is below the cost of the kernel that rule
    picks.  ``class_data()`` gives the class group, asked only when the
    rule needs it and the plane is not cheaper than both of its kernels.
    """
    grows = g.to_rows()
    runs = _run_count(q, grows)
    with_numpy = runs // _NUMPY_GAIN + (0 if numpy_loaded else _NUMPY_RUNS)
    plane = _plane_work(q, grows) if len(grows[0]) > 1 else math.inf
    if plane < min(runs, with_numpy):
        return "plane"
    use_numpy = (numpy_loaded or runs > _NUMPY_RUNS) and _coset_values_fit_int64(
        q, class_data(), g
    )
    if plane < (with_numpy if use_numpy else runs):
        return "plane"
    return "runs" if use_numpy else "walk"


def _inner_column(grows) -> int:
    """The column of G with the least absolute sum K."""
    return min(range(len(grows[0])), key=lambda j: sum(abs(row[j]) for row in grows))


def _run_count(q, grows) -> int:
    """The most runs a plain count visits: q^(d-1) prefix rows of at most
    min(q, 1 + K) runs each, the least-K column innermost."""
    inner = _inner_column(grows)
    return q ** (len(grows[0]) - 1) * min(q, 1 + sum(abs(row[inner]) for row in grows))


def _coset_values_fit_int64(q, cg, g) -> bool:
    """Whether every intermediate of ``_count_runs`` fits in int64.

    With 0 <= r < q, facet values up to the end t = q of a row and the
    breakpoint numerators all stay below (sum |g_ij| + 2) * q; the floors
    then stay below 2^61 + 1.
    """
    value_bound = (sum(abs(x) for row in g.to_rows() for x in row) + 2) * q
    floor_bound = value_bound // q + 1
    proj_bound = max(
        (sum(abs(x) for x in cg.projection.row(i)) for i in range(cg.projection.rows)),
        default=0,
    )
    return q**g.cols < _INT64_SAFE and value_bound < _INT64_SAFE and (
        floor_bound * max(proj_bound, 1) < _INT64_SAFE
    )


def _grid_blocks(sizes, chunk_size, dtype):
    """The points c of the box [0, sizes[0]) x ... x [0, sizes[-1]) in
    lexicographic order, as arrays of at most ``chunk_size`` rows; object
    dtype yields Python integers."""
    import numpy as np

    total = math.prod(sizes)
    radix = np.array([math.prod(sizes[j + 1 :]) for j in range(len(sizes))], dtype=dtype)
    sizes = np.array(sizes, dtype=dtype)
    block = max(1, chunk_size)
    for start in range(0, total, block):
        idx = np.arange(start, min(start + block, total), dtype=np.int64)
        yield (idx[:, None] // radix) % sizes


class _Fractions(dict):
    """n -> Fraction(n, q), made once per distinct numerator."""

    def __init__(self, q):
        super().__init__()
        self.q = q

    def __missing__(self, n):
        value = self[n] = Fraction(n, self.q)
        return value


def _walk_runs(r, q, cg, grows, detail=None):
    """Class coordinates of the cosets c in [0, q)^d, counted with
    multiplicity, for a base divisor r with 0 <= r_i < q, in Python
    integers; with ``detail = (k, basis)`` also the per-coset pairs
    (representative c.B/q, summand divisor of q*k + r) in lexicographic
    order of c.

    The prefix rows c' run in lexicographic order and the last coordinate t
    innermost; a plain count first moves the column with the least K to
    the end, as the multiset does not depend on the order of coordinates.
    Facet i takes the value base_i + g_i*t there, and its floor over q
    moves at no more than |g_i| values of t, found from base_i mod q as in
    ``_count_runs``; when sum |g_i| + 1 >= q every t is its own run.  Each
    run adds its class once, weighted by its length.  A bounded cache maps
    each floor vector to its class, projected with the rows of
    ``_projection_split``, and, for ``detail``, to the one summand divisor
    that the runs with those floors share; each distinct numerator gets one
    shared Fraction.
    """
    if detail is None:
        inner = _inner_column(grows)
        grows = [[*row[:inner], *row[inner + 1 :], row[inner]] for row in grows]
    free_rows, torsion_rows, mods = _projection_split(cg)
    g_in = [row[-1] for row in grows]
    g_out = [row[:-1] for row in grows]
    steps = [(i, gi) for i, gi in enumerate(g_in) if gi]
    dense = sum(abs(gi) for gi in g_in) + 1 >= q
    if detail is not None:
        k, basis = detail
        *b_out, b_in = basis.to_rows()
        b_out = [[row[j] for row in b_out] for j in range(len(b_in))]
        fractions = _Fractions(q)
        rows = []
    seen, shared = {}, None
    counts: dict[tuple, int] = {}
    for prefix in itertools.product(range(q), repeat=len(grows[0]) - 1):
        base = [sum(map(operator.mul, prefix, go)) + ri for go, ri in zip(g_out, r)]
        if dense:
            starts = list(range(q))
        else:
            cuts = {0}
            for i, gi in steps:
                rem = base[i] % q
                if gi > 0:
                    cuts.update((s * q - rem + gi - 1) // gi for s in range(1, gi + 1))
                else:
                    cuts.update((rem + s * q) // -gi + 1 for s in range(-gi))
            starts = sorted(t for t in cuts if t < q)
        run_divisors = []
        for t0, t1 in zip(starts, starts[1:] + [q]):
            floors = tuple([(b + gi * t0) // q for b, gi in zip(base, g_in)])
            hit = seen.get(floors)
            if hit is None:
                if len(seen) >= _WALK_CACHE:
                    seen.clear()
                key = [sum(map(operator.mul, row, floors)) for row in free_rows]
                key += [
                    sum(map(operator.mul, row, floors)) % n
                    for row, n in zip(torsion_rows, mods)
                ]
                if detail is not None:
                    shared = WeilDivisor(tuple(map(operator.add, floors, k)))
                hit = seen[floors] = (tuple(key), shared)
            key, shared = hit
            counts[key] = counts.get(key, 0) + t1 - t0
            if detail is not None:
                run_divisors += [shared] * (t1 - t0)
        if detail is not None:
            columns = []
            for step, col in zip(b_in, b_out):
                start = sum(map(operator.mul, prefix, col))
                if step:
                    nums = range(start, start + q * step, step)
                    columns.append(map(fractions.__getitem__, nums))
                else:
                    columns.append(itertools.repeat(fractions[start], q))
            rows.extend(zip(zip(*columns), run_divisors))
    return counts, (tuple(rows) if detail is not None else None)


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


def _plane_axes(grows):
    """The plane's t column of G (least absolute sum) and s column (the
    next least), the other column indices, and the facet pairs (i, j, sign,
    det, gcd(g_i, g_j)) whose lines cross, det = sign * (g_j*h_i - g_i*h_j)
    > 0."""
    t_col, s_col, *outer = sorted(
        range(len(grows[0])), key=lambda j: sum(abs(row[j]) for row in grows)
    )
    g = [row[t_col] for row in grows]
    h = [row[s_col] for row in grows]
    pairs = []
    for i, j in itertools.combinations(range(len(grows)), 2):
        det = g[j] * h[i] - g[i] * h[j]
        if g[i] and g[j] and det:
            sign = 1 if det > 0 else -1
            pairs.append((i, j, sign, det * sign, math.gcd(g[i], g[j])))
    return g, h, outer, pairs


def _plane_work(q, grows) -> int:
    """The plane's work in walk runs: per outer row, the crossing and
    window splits it enumerates, and its intervals, at most q, times the
    floor sums of the lines inside one, with ``_PLANE_UNITS`` of these
    per walk run."""
    g, h, outer, pairs = _plane_axes(grows)
    crossings = sum(det // step + 1 for _, _, _, det, step in pairs)
    window = sum((abs(hi) + 1) * (2 if gi else 1) for gi, hi in zip(g, h))
    intervals = min(q, 2 * crossings + window + 1)
    lines = sum(abs(gi) + 1 for gi in g if gi) + len(g)
    row = crossings + window + intervals * lines
    return q ** len(outer) * row // _PLANE_UNITS


def _plane_runs(r, q, cg, grows) -> dict:
    """Class coordinates of the cosets c in [0, q)^d, counted with
    multiplicity, for a base divisor r with 0 <= r_i < q, two coordinates
    at a time.

    The column of G with the least absolute sum is t and the next one s;
    with the other coordinates fixed, facet i takes the value
    v_i = b_i + h_i*s + g_i*t on the square [0, q)^2.  Its floor over q
    steps at the lines v_i = k*q: along t, a line with g_i > 0 is passed
    from t = ceil(x) on and one with g_i < 0 from t = floor(x) + 1 on,
    x = (k*q - b_i - h_i*s) / g_i.  The s-axis is split where two lines
    cross (an integer crossing gets an interval of its own) and where a
    floor at t = 0 or t = q - 1 changes.  Inside one interval the lines
    strictly inside the window keep their order, that of x at its first s,
    so the run between two adjacent lines keeps one floor vector, and its
    total length over the interval is a difference of two floor sums.  Only
    coincident lines tie there, and their floor sums put a ceil line before
    a floor + 1 one; on a single s the positions themselves are sorted.  A
    run's class is the class at t = 0 plus the columns of the class
    projection of the lines before it, added for g_i > 0 and subtracted
    for g_i < 0.

    While counting, a class is one integer code, sum_j coordinate_j * R^j
    with each coordinate in (-R/2, R/2) and torsion coordinates not yet
    reduced, so that crossing a line is one addition; ``_decode`` turns
    the codes into coordinates.
    """
    m, d = len(grows), len(grows[0])
    g, h, outer, pairs = _plane_axes(grows)
    g_out = [[row[j] for j in outer] for row in grows]
    cols, radix = _column_codes(cg, grows)
    lcm = math.lcm(*(x for x in g if x))
    span = q - 1
    # a line sorts by lcm * x at the first s of an interval
    lines = [
        (i, g[i], h[i], lcm // g[i], cols[i] if g[i] > 0 else -cols[i])
        for i in range(m)
        if g[i]
    ]
    counts: dict[int, int] = {}
    for prefix in itertools.product(range(q), repeat=d - 2):
        b = [sum(map(operator.mul, prefix, go)) + ri for go, ri in zip(g_out, r)]
        starts = {0}
        for i in range(m):
            hi = h[i]
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
        starts = sorted(starts)
        for lo, end in zip(starts, starts[1:] + [q]):
            n = end - lo
            code = 0
            found = []
            for i, gi, hi, scale, col in lines:
                v = b[i] + hi * lo
                low, high = v // q, (v + gi * span) // q
                if n == 1:
                    # a single s: the positions themselves order the lines
                    if gi > 0:
                        for k in range(low + 1, high + 1):
                            t = (k * q - v - 1) // gi + 1
                            found.append((t, t, col))
                    else:
                        for k in range(high + 1, low + 1):
                            t = (k * q - v) // gi + 1
                            found.append((t, t, col))
                elif gi > 0:
                    for k in range(low + 1, high + 1):
                        x = k * q - v
                        found.append((x * scale, _floor_sum(n, gi, -hi, x + gi - 1), col))
                else:
                    for k in range(high + 1, low + 1):
                        x = k * q - v
                        found.append((x * scale, _floor_sum(n, -gi, hi, -x) + n, col))
            for i in range(m):
                code += (b[i] + h[i] * lo) // q * cols[i]
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


def _count_runs(r, q, cg, g, chunk_size) -> dict:
    """Class coordinates of the cosets c in [0, q)^d, counted with
    multiplicity, for a base divisor r with 0 <= r_i < q.

    The column of G with the least absolute sum K becomes the innermost
    axis t.  With the other coordinates fixed at c', facet i takes the value
    base_i + g_i*t, base_i = c'.g'_i + r_i, and its floor over q changes at
    no more than |g_i| values of t.  Each prefix row c' thus splits into at
    most K + 1 runs of constant class; when K + 1 >= q every t starts a run
    and this is the plain per-coset count.
    """
    import numpy as np

    grows = g.to_rows()
    m, d = g.rows, g.cols
    inner = _inner_column(grows)
    outer = [j for j in range(d) if j != inner]
    g_out = np.array([[row[j] for j in outer] for row in grows], dtype=np.int64).T
    g_in = np.array([row[inner] for row in grows], dtype=np.int64)
    a = np.array(r, dtype=np.int64)
    free_rows, torsion_rows, mods = _projection_split(cg)
    proj = np.array(free_rows + torsion_rows, dtype=np.int64).T
    mods_arr = np.array(mods, dtype=np.int64)
    nfree = len(free_rows)
    powers = np.array([q ** (d - 2 - j) for j in range(d - 1)], dtype=np.int64)

    h = np.abs(g_in)
    dense = int(h.sum()) + 1 >= q
    if not dense:
        # breakpoint s = 1..|g_i| of facet i, as a function of rem = base
        # mod q: the floor moves at t = ceil((s*q - rem)/g_i) when g_i > 0
        # and at t = floor((rem + (s-1)*q)/|g_i|) + 1 when g_i < 0
        fac = np.repeat(np.arange(m), h)
        s = np.concatenate([np.arange(1, n + 1, dtype=np.int64) for n in h.tolist()])
        hf = h[fac]
        up = g_in[fac] > 0
        offset = np.where(up, s * q + hf - 1, (s - 1) * q + hf)
        sign = np.where(up, -1, 1)
    nseg = q if dense else len(fac) + 1
    nrows = q ** (d - 1)
    block = max(1, chunk_size // nseg)

    counts: dict[tuple, int] = {}
    for start in range(0, nrows, block):
        idx = np.arange(start, min(start + block, nrows), dtype=np.int64)
        prefix = (idx[:, None] // powers[None, :]) % q
        base = prefix @ g_out + a
        if dense:
            starts = np.broadcast_to(np.arange(q, dtype=np.int64), (len(idx), q))
            weights = 1
        else:
            t = (offset + sign * (base % q)[:, fac]) // hf
            starts = np.sort(np.minimum(t, q), axis=1)
            starts = np.concatenate([np.zeros((len(idx), 1), np.int64), starts], axis=1)
            weights = np.diff(starts, axis=1, append=q).ravel()
        floors = (base[:, None, :] + starts[:, :, None] * g_in) // q
        coords = floors.reshape(-1, m) @ proj
        if len(mods):
            coords[:, nfree:] %= mods_arr
        _tally_rows(coords, weights, counts)
    return counts


def _tally_rows(coords, weights, counts: dict) -> None:
    """Accumulate weighted row multiplicities of an integer array into
    ``counts``; rows of weight zero add nothing.

    Class coordinates occupy a tiny value range, so pack each row into one
    mixed-radix key and histogram it; fall back to row-unique when the
    packed range would be sparse.
    """
    import numpy as np

    n, k = coords.shape
    if n == 0:
        return
    mins = coords.min(axis=0)
    spans = (coords.max(axis=0) - mins + 1).tolist()
    span_total = math.prod(spans)
    if span_total <= 4 * n + 1024:
        strides = np.array(
            [math.prod(spans[j + 1 :]) for j in range(k)], dtype=np.int64
        )
        keys = (coords - mins) @ strides
        hist = np.zeros(span_total, dtype=np.int64)
        np.add.at(hist, keys, weights)
        base = mins.tolist()
        for packed in np.nonzero(hist)[0].tolist():
            digits = []
            rem = packed
            for j in range(k):
                digits.append(base[j] + rem // int(strides[j]))
                rem %= int(strides[j])
            key = tuple(digits)
            counts[key] = counts.get(key, 0) + int(hist[packed])
    else:
        uniq, inverse = np.unique(coords, axis=0, return_inverse=True)
        cnt = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(cnt, inverse.ravel(), weights)
        for row, c in zip(uniq.tolist(), cnt.tolist()):
            if c:
                key = tuple(row)
                counts[key] = counts.get(key, 0) + c


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


def simultaneous_torsion_count(
    dec: FrobeniusDecomposition,
    cg: ClassGroupData | None = None,
    cap: int | None = None,
) -> int:
    """Total multiplicity over all torsion classes, at most q^d, with
    equality exactly when the class group is finite."""
    if cg is None:
        cg = class_group(dec.spec)
    return sum(
        multiplicity_of(dec, c) for c in torsion_elements(cg, resolve_cap(cap))
    )


def box_count_oracle(
    spec: RingSpec, ctx: FrobeniusContext, cap: int | None = None
) -> int:
    """Number of semigroup elements with every facet value below q.

    Counts lattice points directly, with no cosets, floors, or class
    projections anywhere: this is the monomial count of R modulo the q-th
    powers of the ambient variables when the ring is embedded facet-by-facet,
    and it independently reproduces the free rank of the coset decomposition.
    In lattice coordinates the points are the c in Z^d with 0 <= Gc < q, so
    the oracle walks the bounding box of qP, P = {c : 0 <= Gc <= 1} with
    the vertices of ``unit_region_vertices`` in lattice coordinates, in
    blocks of ``DEFAULT_CHUNK`` points, in int64 when every product fits
    and in Python integers otherwise.
    """
    import numpy as np

    q = ctx.q
    vertices = unit_region_vertices(spec)
    if not vertices:
        raise RuntimeError("facet region has no vertices; spec is invalid")
    points = [spec.lattice.coordinates_of(v) for v in vertices]
    lows, sizes = [], []
    for k in range(spec.dim):
        vals = [w[k] * q for w in points]
        lows.append(math.ceil(min(vals)))
        sizes.append(max(math.floor(max(vals)) - lows[-1] + 1, 0))
    _check_cap(math.prod(sizes), resolve_cap(cap), "bounding-box enumeration")
    if 0 in sizes:
        return 0
    grows = pairing_matrix(spec).to_rows()
    # the products of a point stay below 2^62 on the int64 grid
    coord_bound = max(max(abs(lo), abs(lo + n - 1)) for lo, n in zip(lows, sizes))
    fits = max(q, max(sum(map(abs, row)) for row in grows) * coord_bound) < _INT64_SAFE
    dtype = np.int64 if fits else object
    lows_arr = np.array(lows, dtype=dtype)
    g_t = np.array(grows, dtype=dtype).T
    count = 0
    for c in _grid_blocks(sizes, DEFAULT_CHUNK, dtype):
        vals = (c + lows_arr) @ g_t
        count += int(((vals >= 0) & (vals < q)).all(axis=1).sum())
    return count
