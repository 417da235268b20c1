"""Seeded inputs for the three benchmark workloads.

Every workload is a list of CLI invocations run one after another, each in a
fresh ``python -m toricfsig`` child.  A seed fixes the whole list; the cost
shape of each slot (ring dimension, facet count, q = p^e) is fixed, and the
seed only picks parameters that leave the amount of work unchanged (which
an:n or veronese:n, the twists, the random rings themselves), so figures
stay comparable across seeds.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from toricfsig import class_group, default_corpus, validate
from toricfsig.geometry import matrix_rank, solve_square
from toricfsig.linalg import IntMat, kernel_basis
from toricfsig.rings import FacetFunctional, Lattice, RingSpec, ring_to_dict

WORKLOADS = ("corpus", "twisted", "rings")

# Shapes of the generated rings on `rings`: (dimension, irredundant facets).
# Free class-group rank is facets - dimension, so at least 2 everywhere.
RING_SHAPES = ((3, 6), (4, 6), (4, 7))
TORSION_LIMIT = 64


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``python -m toricfsig *argv``."""

    argv: tuple[str, ...]
    expect_rc: int = 0
    check: str | None = None  # name of the independent check in checks.py
    cosets: int = 0  # sum of q^d over the decompose calls it implies
    probe: bool = False  # malformed input: scored in ok_rate, not in `failed`
    golden: str | None = None  # key of its stdout digest in golden.json


@dataclass
class Workload:
    commands: list[Command]
    files: dict[str, dict] = field(default_factory=dict)  # path -> JSON doc
    setup_rings: list[str] = field(default_factory=list)  # setup_child tokens

    @property
    def cosets(self) -> int:
        return sum(c.cosets for c in self.commands)


def _twist(rng: random.Random, n: int, bound: int) -> str:
    return ",".join(str(rng.randrange(-bound + 1, bound)) for _ in range(n))


def _big_twist(rng: random.Random, n: int) -> str:
    # |a_i| between 10^18 and 10^30: past the int64 bound of the coset kernel
    out = []
    for _ in range(n):
        mag = 10 ** rng.randint(18, 29) * rng.randint(1, 9) + rng.randrange(10**6)
        out.append(str(mag * rng.choice((1, -1))))
    return ",".join(out)


def _cyclic(rng: random.Random) -> str:
    return f"{rng.choice(('an', 'veronese'))}:{rng.randint(2, 12)}"


def _decompose(ring: str, p: int, e: int, divisor: str, dim: int, *extra, check):
    argv = ("decompose", "--builtin", ring, "-p", str(p), "-e", str(e),
            f"--divisor={divisor}", *extra, "--format", "json")
    return Command(argv, check=check, cosets=(p**e) ** dim)


def corpus_cosets(primes=(2, 3, 5), e_max=8, q_max=256) -> int:
    total = 0
    for spec in default_corpus():
        for p in primes:
            for e in range(1, e_max + 1):
                if p**e > q_max:
                    break
                total += (p**e) ** spec.dim
    return total


def corpus(seed: int) -> Workload:
    """The paper's corpus run plus large seeded decompositions on builtins,
    q^d between 2^20 and 2^23, twists |a_i| < q (the int64 kernel)."""
    rng = random.Random(f"corpus:{seed}")
    cyc_a, cyc_b = _cyclic(rng), _cyclic(rng)
    fsig = ("fsig", "--builtin", cyc_b, "-p", "2", "-e", "10",
            f"--divisor={_twist(rng, 2, 1024)}", "--format", "json")
    commands = [
        Command(("verify", "--corpus", "-p", "2,3,5", "-e", "8", "--format", "json"),
                check="builtin_verify", cosets=corpus_cosets(), golden="corpus_verify"),
        _decompose("quadric", 2, 7, _twist(rng, 4, 128), 3, check="summands"),
        _decompose(cyc_a, 3, 7, _twist(rng, 2, 3**7), 2, check="summands"),
        Command(fsig, check="fsig", cosets=sum(4**e for e in range(1, 11))),
    ]
    rings = ["corpus", "builtin:quadric", f"builtin:{cyc_a}", f"builtin:{cyc_b}"]
    return Workload(commands, setup_rings=rings)


def twisted(seed: int) -> Workload:
    """Divisors past the int64 bound (the big-int path) and --detail runs
    (the Fraction detail path and a large JSON document), plus a small
    verify and fsig so that every layer takes part."""
    rng = random.Random(f"twisted:{seed}")
    cyc_a, cyc_b = _cyclic(rng), _cyclic(rng)
    commands = [
        _decompose("quadric", 7, 2, _big_twist(rng, 4), 3, check="twist"),
        _decompose(cyc_a, 2, 8, _big_twist(rng, 2), 2, check="twist"),
        _decompose("quadric", 2, 5, _twist(rng, 4, 32), 3, "--detail", check="detail"),
        _decompose(cyc_b, 2, 7, _twist(rng, 2, 128), 2, "--detail", check="detail"),
        Command(("verify", "--builtin", "quadric", "-p", "2", "-e", "4", "--format", "json"),
                check="builtin_verify", cosets=sum(8**e for e in range(1, 5))),
        Command(("fsig", "--builtin", cyc_a, "-p", "3", "-e", "2", "--format", "json"),
                check="fsig", cosets=9 + 81),
    ]
    rings = ["builtin:quadric", f"builtin:{cyc_a}", f"builtin:{cyc_b}"]
    return Workload(commands, setup_rings=rings)


# Two malformed ring files from the input contract: both must exit 2.
MALFORMED = {
    "bad_fraction.json": {
        "name": "bad_fraction", "dim": 2, "lattice_basis": [[1, 0], [0, 1]],
        "facets": [["1/0", "0"], ["0", "1"]],
    },
    "bad_dim0.json": {"name": "bad_dim0", "dim": 0, "lattice_basis": [], "facets": []},
}


def rings(seed: int, workdir: str) -> Workload:
    """Random valid rings through classgroup and verify, a small fsig,
    poly:7, and the malformed inputs.  Set-up layers (validate, vertex enumeration, volume,
    Smith form) dominate; counting is small."""
    rng = random.Random(f"rings:{seed}")
    files = {}
    commands = []
    setup = []
    for k, (d, m) in enumerate(RING_SHAPES):
        path = f"{workdir}/ring{k}.json"
        files[path] = ring_to_dict(random_ring(rng, d, m, f"rand{k}:d{d}m{m}"))
        setup.append(f"ring:{path}")
        commands.append(Command(("classgroup", "--ring", path, "--format", "json"),
                                check="ring_classgroup"))
        cosets = sum((p**e) ** d for p in (2, 3) for e in (1, 2))
        commands.append(Command(("verify", "--ring", path, "-p", "2,3", "-e", "2",
                                 "--format", "json"), check="ring_verify", cosets=cosets))
    d = RING_SHAPES[0][0]
    commands.append(Command(("fsig", "--ring", f"{workdir}/ring0.json", "-p", "2", "-e", "2",
                             "--format", "json"), check="fsig", cosets=2**d + 4**d))
    commands.append(Command(("classgroup", "--builtin", "poly:7", "--format", "json"),
                            golden="poly7_classgroup"))
    setup.append("builtin:poly:7")
    for name, doc in MALFORMED.items():
        path = f"{workdir}/{name}"
        files[path] = doc
        commands.append(Command(("verify", "--ring", path, "-p", "2,3", "-e", "2"),
                                expect_rc=2, probe=True))
    return Workload(commands, files, setup)


def build(name: str, seed: int, workdir: str) -> Workload:
    if name == "corpus":
        return corpus(seed)
    if name == "twisted":
        return twisted(seed)
    if name == "rings":
        return rings(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# --- random rings -----------------------------------------------------------


def _unimodular(rng: random.Random, d: int) -> list[list[int]]:
    w = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(3 * d):
        i, j = rng.sample(range(d), 2)
        k = rng.choice((-1, 1))
        w[i] = [a + k * b for a, b in zip(w[i], w[j])]
    return w


def _hnf_basis(rng: random.Random, d: int) -> list[list[int]]:
    diag = [rng.choice((1, 1, 2, 3)) for _ in range(d)]
    return [
        [diag[i] if j == i else (rng.randrange(diag[j]) if j > i else 0) for j in range(d)]
        for i in range(d)
    ]


def _rays(rows: list[tuple[int, ...]], d: int) -> list[tuple[int, ...]]:
    """Extreme rays of the pointed cone {c : g.c >= 0 for every row g}."""
    rays = set()
    for subset in itertools.combinations(rows, d - 1):
        ker = kernel_basis(IntMat.from_rows(subset))
        if len(ker) != 1:
            continue
        for v in (ker[0], tuple(-x for x in ker[0])):
            if all(sum(a * b for a, b in zip(g, v)) >= 0 for g in rows):
                rays.add(v)
    return sorted(rays)


def _irredundant(rows: list[tuple[int, ...]], d: int) -> list[tuple[int, ...]]:
    if matrix_rank(rows) < d:
        return rows  # not pointed yet: keep drawing rows
    rays = _rays(rows, d)
    return [
        g for g in rows
        if matrix_rank([r for r in rays if sum(a * b for a, b in zip(g, r)) == 0]) == d - 1
    ]


def random_ring(rng: random.Random, d: int, m: int, name: str) -> RingSpec:
    """A valid ring of dimension d with exactly m facets, free class-group
    rank m - d and non-cyclic torsion.

    Draw an HNF lattice basis B and primitive rows g of the pairing matrix G
    (lattice coordinates) positive on an interior point, dropping redundant
    rows as they appear.  Every row is congruent modulo a prime l to the span
    of the first d - 2 rows of a unimodular W, so G mod l has rank <= d - 2
    and Cl(R) contains (Z/l)^2.  Facet covectors are B^-1 g.
    """
    while True:
        ell = rng.choice((2, 3))
        w = _unimodular(rng, d)
        interior = [rng.randint(1, 3) for _ in range(d)]
        rows: list[tuple[int, ...]] = []
        for _ in range(60):
            g0 = [rng.randint(-3, 3) for _ in range(d - 2)]
            g0 += [ell * rng.randint(-1, 1) for _ in range(2)]
            g = tuple(sum(g0[i] * w[i][j] for i in range(d)) for j in range(d))
            if math.gcd(*g) != 1 or g in rows:
                continue
            if sum(a * b for a, b in zip(g, interior)) <= 0:
                continue
            rows = _irredundant(rows + [g], d)
            if len(rows) == m:
                break
        if len(rows) != m:
            continue
        spec = _spec(name, _hnf_basis(rng, d), rows)
        cg = class_group(spec)
        if len(cg.invariant_factors) < 2 or cg.torsion_cardinality > TORSION_LIMIT:
            continue
        if validate(spec):
            continue
        return spec


def _spec(name: str, basis: list[list[int]], rows) -> RingSpec:
    facets = tuple(
        FacetFunctional(tuple(solve_square(basis, [Fraction(x) for x in g])))
        for g in rows
    )
    return RingSpec(name=name, lattice=Lattice(IntMat.from_rows(basis)), facets=facets)
