"""Byte-golden outputs of the toricfsig command line.

``golden_outputs.json`` pins, for each command of ``commands()``, its argv,
its exit code and the sha256 of its stdout and of its stderr.  Every
command runs in-process through ``toricfsig.cli.main`` with no
``TORICFSIG_CAP`` and ``COLUMNS=80``, in a scratch directory holding the
ring files of ``RING_FILES``, so ring-file arguments are bare file names
and every byte is independent of the machine.  An exception that escapes
``main`` counts as exit 1 with its last traceback line on stderr, as a
fresh interpreter would end.

    PYTHONPATH=src python tests/regen_golden.py          # list the changes
    PYTHONPATH=src python tests/regen_golden.py --write  # rewrite the file

Without ``--write`` it only compares, and exits 1 when a command's bytes
moved.  ``tests/test_golden.py`` runs the same comparison in the suite.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path

from test_cli import DENSE
from test_frobenius import BOX_RING, KLEIN, MIXED
from toricfsig.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")


def _doc(dim, basis, facets, name="bad"):
    return json.dumps({"name": name, "dim": dim, "lattice_basis": basis,
                       "facets": facets})


I2 = [[1, 0], [0, 1]]
I9 = [[int(i == j) for j in range(9)] for i in range(9)]
I16 = [[int(i == j) for j in range(16)] for i in range(16)]
# name -> file text; the bad_* files trip each message of rings.validate
# that a ring file can reach, and the broken_* ones the file reader
RING_FILES = {
    "klein.json": json.dumps(KLEIN),
    # the lattice of KLEIN on a basis whose last row moves every coordinate
    # along t, one of them down
    "klein_rebased.json": json.dumps(
        {**KLEIN, "name": "klein_rebased", "lattice_basis": [[2, 0, 0], [0, 2, 0], [1, -1, 1]]}
    ),
    "mixed.json": json.dumps(MIXED),
    "dense.json": json.dumps(DENSE),
    "seed197.json": json.dumps(BOX_RING),
    # facets (1, N) and (N, 1) on Z^2, N = 10^5: each column of G sums past
    # every q that the commands below use
    "wide.json": _doc(2, I2, [["1", "100000"], ["100000", "1"]], "wide"),
    # the coordinate facets of d = 16: 16 rays, where the unit region has
    # 2^16 vertices
    "poly16.json": _doc(16, I16, [[str(x) for x in row] for row in I16], "poly16"),
    # the facets (1, t, ..., t^8), t = 1..28: a cone in d = 9 whose 12,397
    # rays take a double description of more than 2^24 pair tests
    "cyclic28.json": _doc(9, I9, [[str(t**i) for i in range(9)] for t in range(1, 29)],
                          "cyclic28"),
    # a name whose CSV field needs quoting
    "quoted.json": json.dumps({**MIXED, "name": 'mixed, "quoted"'}),
    "bad_dim0.json": _doc(0, [], []),
    "bad_rank.json": _doc(2, [[1, 0], [2, 0]], [["1", "0"], ["0", "1"]]),
    "bad_integral.json": _doc(2, I2, [["1/2", "0"], ["0", "1"]]),
    "bad_primitive.json": _doc(2, I2, [["2", "0"], ["0", "1"]]),
    "bad_duplicate.json": _doc(2, I2, [["1", "0"], ["0", "1"], ["1", "0"]]),
    "bad_pointed.json": _doc(2, I2, [["1", "0"]]),
    "bad_flat.json": _doc(2, I2, [["1", "0"], ["-1", "0"], ["0", "1"]]),
    "bad_redundant.json": _doc(2, I2, [["1", "0"], ["0", "1"], ["1", "1"]]),
    "bad_several.json": _doc(2, [[1, 1], [0, 2]],
                             [["1/3", "0"], ["0", "2"], ["0", "2"]]),
    "bad_half_redundant.json": _doc(2, I2, [["1/2", "0"], ["0", "1"], ["1", "1"]]),
    "bad_half_pointed.json": _doc(2, I2, [["1/2", "0"], ["1", "0"]]),
    "broken_json.json": "{not json",
    "broken_key.json": json.dumps({"name": "x", "dim": 2}),
    "broken_dim.json": _doc(1.5, [[1]], [["1"]]),
    "broken_entry.json": _doc(2, I2, [["1/0", "0"], ["0", "1"]]),
    "broken_length.json": _doc(2, I2, [["1", "0", "0"], ["0", "1"]]),
}

BIG = 10**23  # a divisor coefficient past 2^63
AN62 = f"an:{2**62}"  # a row of G sums past 2^63
FORMATS = ("text", "csv", "json")


def _ring(token):
    return ["--ring", token] if token.endswith(".json") else ["--builtin", token]


def commands() -> list[list[str]]:
    """Every subcommand in every format on the built-ins and the literal
    rings of the tests, then the exit-2 and exit-3 paths."""
    rings = ["poly:1", "poly:2", "poly:3", "an:2", "an:5", "veronese:3",
             "veronese:6", "quadric", AN62, "klein.json", "mixed.json",
             "dense.json", "seed197.json"]
    facets = {"poly:1": 1, "poly:3": 3, "quadric": 4, "klein.json": 3,
              "mixed.json": 5, "dense.json": 5, "seed197.json": 6}
    out = []
    for ring in rings:
        m = facets.get(ring, 2)
        twist = ",".join(str((-1) ** i * (BIG + 3 * i)) for i in range(m))
        small = ",".join(str(i - 1) for i in range(m))
        for fmt in FORMATS:
            f = ["--format", fmt]
            out.append(["classgroup", *_ring(ring), *f])
            out.append(["fsig", *_ring(ring), "-p", "2", "-e", "3", "--exact", *f])
            out.append(["fsig", *_ring(ring), "-p", "3", "-e", "2", f"--divisor={small}", *f])
            out.append(["decompose", *_ring(ring), "-p", "3", "-e", "2", *f])
            out.append(["decompose", *_ring(ring), "-p", "2", "-e", "2",
                        f"--divisor={twist}", "--detail", *f])
            out.append(["verify", *_ring(ring), "-p", "2,3", "-e", "3", *f])
    for fmt in FORMATS:
        out.append(["verify", "--corpus", "-p", "2,3,5", "-e", "4", "--format", fmt])
    out += [
        ["verify", "--corpus", "-p", "2", "-e", "8", "--q-max", "64", "--format", "json"],
        ["verify", "--builtin", "an:3", "-p", "2", "-e", "2", "--out", "report.txt"],
        ["fsig", "--builtin", "an:4", "-p", "5", "-e", "2", "--exact"],
        # --exact with a divisor: a torsion class tends to s, and a class of
        # infinite order exits 2
        ["fsig", "--builtin", "an:3", "-p", "2", "-e", "6", "--exact", "--divisor", "1,0"],
        ["fsig", "--builtin", "quadric", "-p", "2", "-e", "6", "--exact",
         "--divisor", "1,0,0,0"],
        ["decompose", "--builtin", "quadric", "-p", "2", "-e", "1", "--detail"],
        ["decompose", "--builtin", "an:3", "-p", "7", "-e", "1", "--divisor", "1,0",
         "--detail", "--format", "json"],
    ]
    # --detail past one 4096-row output block
    for fmt in ("text", "json"):
        out.append(["decompose", "--builtin", "quadric", "-p", "2", "-e", "5",
                    "--divisor=3,-7,11,2", "--detail", "--format", fmt])
    out += [
        ["decompose", "--builtin", "an:7", "-p", "2", "-e", "7", "--divisor=5,-9",
         "--detail", "--format", "json"],
        ["decompose", "--ring", "mixed.json", "-p", "17", "-e", "1",
         "--divisor=1,-2,3,-4,5", "--detail"],
    ]
    # --detail in d = 1 past one block, at an odd q with reduced fractions,
    # and with every coordinate moving along t
    for fmt in ("text", "json"):
        out += [
            ["decompose", "--builtin", "poly:1", "-p", "2", "-e", "13", "--detail",
             "--format", fmt],
            ["decompose", "--builtin", "veronese:5", "-p", "3", "-e", "4",
             "--divisor=7,-5", "--detail", "--format", fmt],
            ["decompose", "--ring", "klein_rebased.json", "-p", "3", "-e", "3",
             "--detail", "--format", fmt],
        ]
    # pairing entries far above q
    out += [
        ["decompose", "--ring", "wide.json", "-p", "2", "-e", "2"],
        ["decompose", "--ring", "wide.json", "-p", "2", "-e", "2", "--divisor=7,-5",
         "--detail", "--format", "json"],
        ["verify", "--ring", "wide.json", "-p", "2,3", "-e", "2"],
        ["fsig", "--ring", "wide.json", "-p", "2", "-e", "3", "--exact"],
    ]
    out += [["classgroup", "--ring", name, "--format", fmt]
            for name in ("poly16.json", "quoted.json") for fmt in FORMATS]
    # --detail with q^2 = 16,384 distinct numerators, more than the
    # writer's memo holds
    for fmt in ("text", "json"):
        out.append(["decompose", "--builtin", "an:100001", "-p", "2", "-e", "7",
                    "--detail", "--format", fmt])
    # bad input: exit 2
    for command in ("classgroup", "fsig", "decompose"):
        out += [[command, "--builtin", token] for token in
                ("", "nope:1", "an:1", "an:x", "an:2,3", "quadric:3", "poly:0")]
        out += [[command, "--ring", name] for name in sorted(RING_FILES)
                if name.startswith(("bad_", "broken_"))]
        out.append([command, "--ring", "missing.json"])
    out += [
        ["verify", "--builtin", ""],
        ["verify"],
        ["classgroup"],
        ["classgroup", "--builtin", "an:2", "--ring", "klein.json"],
        ["classgroup", "--builtin", "an:2", "--format", "xml"],
        [],
        ["fsig", "--builtin", "an:3", "-p", "4"],
        ["fsig", "--builtin", "an:3", "-p", "x"],
        ["fsig", "--builtin", "an:3", "-e", "0"],
        ["fsig", "--builtin", "an:3", "--divisor", "1,2,3"],
        ["fsig", "--builtin", "poly:5", "--exact"],
        ["decompose", "--builtin", "an:3", "-p", "1"],
        ["decompose", "--builtin", "an:3", "-e", "0"],
        ["decompose", "--builtin", "an:3", "--divisor", "a,b"],
        ["decompose", "--builtin", "an:3", "--divisor", "1"],
        ["decompose", "--builtin", "an:3", "--divisor", ""],
        ["fsig", "--builtin", "an:3", "--divisor", ""],
        ["verify", "--corpus", "--builtin", "an:3"],
        ["verify", "--corpus", "--ring", "klein.json"],
        ["decompose", "--builtin", "an:3", "--cap", "-1"],
        ["verify", "--builtin", "an:3", "-p", "3", "--q-max", "2"],
        ["verify", "--builtin", "an:3", "-p", "x"],
        ["verify", "--builtin", "an:3", "-p", ","],
        ["verify", "--builtin", "an:3", "-p", "4"],
        ["verify", "--builtin", "an:3", "-e", "0"],
        ["verify", "--builtin", "an:3", "--q-max", "1"],
        ["verify", "--builtin", "poly:5", "-p", "2", "-e", "1"],
        ["verify", "--builtin", "an:3", "--out", "missing/report.txt"],
    ]
    # a torsion subgroup past the cap, summed without listing its classes
    out.append(["verify", "--builtin", "an:100000", "-p", "2", "-e", "2", "--cap", "50000"])
    # cap overruns: exit 3
    out += [
        ["decompose", "--builtin", "quadric", "-p", "2", "-e", "5", "--cap", "100"],
        ["decompose", "--builtin", "an:3", "-p", "2", "-e", "1000000"],
        ["decompose", "--builtin", "an:3", "-p", "2305843009213693951", "-e", "1",
         "--cap", "10"],
        ["fsig", "--builtin", "an:3", "-p", "2", "-e", "4", "--cap", "64"],
        ["verify", "--builtin", "an:2", "--cap", "1"],
        ["verify", "--corpus", "-p", "2", "-e", "3", "--cap", "40"],
        ["verify", "--corpus", "-p", "2", "-e", "3", "--cap", "40", "--format", "json"],
        ["decompose", "--builtin", "an:5", "-p", "2", "-e", "1", "--cap", "0"],
        # in validate, on the pair tests of the cone's double description
        ["verify", "--ring", "cyclic28.json", "-p", "2", "-e", "1", "--cap", "100000"],
        ["verify", "--ring", "cyclic28.json", "-p", "2", "-e", "1", "--cap", "100000",
         "--format", "json"],
    ]
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv: list[str]) -> dict:
    """One golden entry: argv, exit code, and the digests of its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an uncaught error ends a real run with 1
            err.write(traceback.format_exception_only(exc)[-1])
            code = 1
    return {"argv": argv, "code": code, "stdout": _sha(out.getvalue()),
            "stderr": _sha(err.getvalue())}


def run_all(argvs: list[list[str]]) -> list[dict]:
    """Run every command in a scratch directory holding RING_FILES."""
    saved = {k: os.environ.get(k) for k in ("TORICFSIG_CAP", "COLUMNS")}
    os.environ.pop("TORICFSIG_CAP", None)
    os.environ["COLUMNS"] = "80"
    try:
        with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
            for name, text in RING_FILES.items():
                Path(name).write_text(text, encoding="utf-8")
            return [run(argv) for argv in argvs]
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def changed(want: list[dict], got: list[dict]) -> list[list[str]]:
    """The argv of each command whose entry differs, or is new or gone."""
    old = {json.dumps(e["argv"]): e for e in want}
    new = {json.dumps(e["argv"]): e for e in got}
    return [json.loads(k) for k in sorted(old.keys() | new.keys())
            if old.get(k) != new.get(k)]


def main_regen(args: list[str]) -> int:
    got = run_all(commands())
    want = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []
    moved = changed(want, got)
    for argv in moved:
        print("moved:", json.dumps(argv))
    if "--write" in args:
        GOLDEN.write_text(json.dumps(got, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(got)} entries to {GOLDEN.name}")
        return 0
    return 1 if moved else 0


if __name__ == "__main__":
    raise SystemExit(main_regen(sys.argv[1:]))
