"""Command-line interface.

Subcommands mirror the library: classgroup, fsig, decompose, verify.  Rings
come from --builtin addresses (an:4, veronese:3, poly:2, quadric) or from
JSON definition files via --ring.  Machine formats print rationals as exact
a/b strings and are byte-deterministic for identical invocations.

Exit codes: 0 success, 1 torsion bound violated (a bug sentinel), 2 bad
input or an unwritable standard output, 3 enumeration cap exceeded.

``run`` is the entry point of a process (``python -m toricfsig`` and the
``toricfsig`` script).  It runs ``main``, flushes stdout and stderr and ends
with ``os._exit``, so the interpreter's teardown never runs; neither do the
atexit handlers of other code, such as coverage's subprocess mode.  A
``SystemExit`` from argument parsing (usage errors, ``--help``) still takes
the normal exit.  ``main(argv)`` returns its code and ends nothing, for
callers in the same process.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import json
import math
import os
import sys

from .caps import CapExceededError, resolve_cap
from .divisors import WeilDivisor, class_group
from .frobenius import FrobeniusContext, coset_rows, decompose, numerator_memo
from .fsignature import exact_signature_volume, signature_sequence
from .rings import (
    RingFormatError,
    RingSpec,
    load_ring_file,
    parse_builtin,
    validate,
)
from .verify import (
    csv_text,
    default_corpus,
    report_to_csv,
    report_to_json,
    run_corpus,
    violation_bundle,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BAD_INPUT = 2
EXIT_CAP = 3


def _add_ring_args(sub, required=True):
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--builtin", help="builtin ring address, e.g. an:4")
    group.add_argument("--ring", help="path to a JSON ring definition file")


def _resolve_ring(args) -> RingSpec:
    if args.builtin is not None:
        return parse_builtin(args.builtin)
    spec = load_ring_file(args.ring)
    problems = validate(spec, vars(args).get("cap"))
    if problems:
        raise RingFormatError(
            f"invalid ring file {args.ring}: " + "; ".join(problems)
        )
    return spec


def _parse_divisor(text: str, spec: RingSpec) -> WeilDivisor:
    try:
        coeffs = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"bad divisor {text!r}; expected comma-separated integers")
    if len(coeffs) != spec.num_facets:
        raise ValueError(
            f"divisor needs {spec.num_facets} coefficients for {spec.name}"
        )
    return WeilDivisor(coeffs)


def _group_label(cg) -> str:
    parts = []
    if cg.free_rank == 1:
        parts.append("Z")
    elif cg.free_rank > 1:
        parts.append(f"Z^{cg.free_rank}")
    parts.extend(f"Z/{d}" for d in cg.invariant_factors)
    return " + ".join(parts) if parts else "trivial"


def _class_label(c) -> str:
    free = ",".join(map(str, c.free))
    torsion = ",".join(map(str, c.torsion))
    if not free and not torsion:
        return "0"
    if not free:
        return f"[{torsion}]"
    if not torsion:
        return f"({free})"
    return f"({free})+[{torsion}]"


def cmd_classgroup(args) -> int:
    spec = _resolve_ring(args)
    cg = class_group(spec)
    data = {
        "ring": spec.name,
        "group": _group_label(cg),
        "free_rank": cg.free_rank,
        "invariant_factors": list(cg.invariant_factors),
        "torsion_cardinality": cg.torsion_cardinality,
    }
    if args.format == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    elif args.format == "csv":
        factors = ";".join(map(str, cg.invariant_factors))
        header = "ring,group,free_rank,invariant_factors,torsion_cardinality".split(",")
        row = (spec.name, data["group"], cg.free_rank, factors, cg.torsion_cardinality)
        sys.stdout.write(csv_text(header, [row]))
    else:
        print(f"ring: {spec.name}")
        print(f"class group: {data['group']}")
        print(f"free rank: {cg.free_rank}")
        print(f"invariant factors: {list(cg.invariant_factors)}")
        print(f"torsion cardinality: {cg.torsion_cardinality}")
    return EXIT_OK


def cmd_fsig(args) -> int:
    spec = _resolve_ring(args)
    divisor = _parse_divisor(args.divisor, spec) if args.divisor is not None else None
    seq = signature_sequence(spec, args.p, args.e_max, divisor=divisor, cap=args.cap)
    exact = exact_signature_volume(spec) if args.exact else None
    if args.format == "json":
        doc = {
            "ring": spec.name,
            "p": args.p,
            "divisor": list(divisor.coeffs) if divisor else None,
            "sequence": [
                {"e": est.ctx.e, "q": est.ctx.q, "a_e": est.a_e, "s_e": str(est.s_e)}
                for est in seq
            ],
            "exact": str(exact.value) if exact else None,
            "method": exact.method if exact else None,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif args.format == "csv":
        rows = [(est.ctx.e, est.ctx.q, est.a_e, est.s_e) for est in seq]
        if exact:
            rows.append(("exact", "", "", exact.value))
        sys.stdout.write(csv_text(["e", "q", "a_e", "s_e"], rows))
    else:
        print(f"ring: {spec.name}  p={args.p}")
        for est in seq:
            line = f"  e={est.ctx.e}  q={est.ctx.q}  a_e={est.a_e}  s_e={est.s_e}"
            if exact:
                dev = abs(est.s_e - exact.value)
                line += f"  |s_e-s|={dev} (~{float(dev):.3g})"
            print(line)
        if exact:
            print(f"exact F-signature: {exact.value} ({exact.method})")
    return EXIT_OK


def cmd_decompose(args) -> int:
    spec = _resolve_ring(args)
    divisor = (
        _parse_divisor(args.divisor, spec)
        if args.divisor is not None
        else WeilDivisor((0,) * spec.num_facets)
    )
    ctx = FrobeniusContext(args.p, args.e)
    dec = decompose(spec, divisor, ctx, cap=args.cap)
    # csv prints only the summands, so it never lists the cosets
    rows = None
    if args.detail and args.format != "csv":
        rows = coset_rows(spec, divisor, ctx, cap=args.cap)
    items = dec.summands.items()
    out = sys.stdout
    if args.format == "json":
        doc = {
            "ring": spec.name,
            "p": args.p,
            "e": args.e,
            "q": ctx.q,
            "divisor": list(divisor.coeffs),
            "rank": dec.rank,
            "summands": [
                {
                    "free": list(c.free),
                    "torsion": list(c.torsion),
                    "multiplicity": n,
                }
                for c, n in items
            ],
        }
        if rows is not None:
            # the rows are spliced into the dump of the rest of the document
            # in place of a placeholder; a key line cannot occur in a string
            doc["cosets"] = 0
            head, tail = json.dumps(doc, indent=2, sort_keys=True).split(
                '\n  "cosets": 0', 1
            )
            out.write(head + '\n  "cosets": [\n')
            w_row = ',\n      "w": ' + _json_list(spec.dim, '"%s"') + "\n    }"
            d_row = '    {\n      "divisor": ' + _json_list(spec.num_facets, "%s")
            _write_rows(out, rows, ctx.q, spec.dim, w_row, d_row, ",\n", divisor_first=True)
            out.write("\n  ]" + tail + "\n")
        else:
            print(json.dumps(doc, indent=2, sort_keys=True))
    elif args.format == "csv":
        labelled = [(_class_label(c), n) for c, n in items]
        sys.stdout.write(csv_text(["class", "multiplicity"], labelled))
    else:
        print(f"ring: {spec.name}  p={args.p} e={args.e} q={ctx.q}  rank={dec.rank}")
        print(f"base divisor: {list(divisor.coeffs)}")
        for c, n in items:
            print(f"  class {_class_label(c)}: {n}")
        if rows is not None:
            w_row = "    w=(" + ", ".join(["%s"] * spec.dim) + ")"
            d_row = "  divisor=[" + ", ".join(["%s"] * spec.num_facets) + "]"
            _write_rows(out, rows, ctx.q, spec.dim, w_row, d_row, "\n", divisor_first=False)
            out.write("\n")
    return EXIT_OK


def _json_list(n: int, item: str) -> str:
    """A ``json.dumps(indent=2)`` list of n >= 1 formatted items at depth 3."""
    return "[\n" + ",\n".join(["        " + item] * n) + "\n      ]"


WINDOW = 4096  # rows per write of --detail


def _fraction_text(n: int, q: int) -> str:
    """str(Fraction(n, q)), the text of a representative coordinate with
    numerator n, from gcd(n, q) and no Fraction."""
    g = math.gcd(n, q)
    return str(n // q) if g == q else f"{n // g}/{q // g}"


def _write_rows(
    out, rows, q: int, dim: int, w_row: str, d_row: str, sep: str, divisor_first: bool
) -> None:
    """Write one line per coset of the ``coset_rows`` result ``rows``,
    ``w_row % w`` and ``d_row % divisor`` in the given order, joined by
    ``sep``, in windows of at most ``WINDOW`` rows, from its run blocks.

    Per prefix row, the literal text of ``w_row`` around and between the
    coordinates that move along t is one string each, with the texts of the
    coordinates that stay put folded in.  A run of n rows formats its
    divisor once and is one join of n inner texts: the moving coordinate's
    own when only one moves, else one join per row.  The coordinate texts
    come from ``numerator_memo``, which keeps them in d >= 2 while its memo
    holds them."""
    text = numerator_memo(lambda n: _fraction_text(n, q), q, dim)
    pieces = w_row.split("%s")
    window = []
    room = WINDOW
    lead = ""
    for numerators, runs in rows.runs:
        parts = [pieces[0]]
        for (start, step), piece in zip(numerators, pieces[1:]):
            if step:
                nums = range(start, start + q * step, step)
                parts += [map(text, nums), piece]
            else:
                parts[-1] += text(start) + piece
        head, *middle, tail = parts
        if len(middle) == 1:
            inner = middle[0]
        else:
            middle[1::2] = map(itertools.repeat, middle[1::2])
            inner = map("".join, zip(*middle))
        for n, divisor in runs:
            d_text = d_row % divisor.coeffs
            first, last = (d_text + head, tail) if divisor_first else (head, tail + d_text)
            between = last + sep + first
            while n:
                k = min(n, room)
                window += (lead, first, between.join(itertools.islice(inner, k)), last)
                lead = sep
                n -= k
                room -= k
                if not room:
                    out.write("".join(window))
                    window.clear()
                    room = WINDOW
    out.write("".join(window))


def _write_file(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def cmd_verify(args) -> int:
    try:
        ps = [int(x) for x in args.primes.split(",") if x]
    except ValueError:
        raise ValueError(
            f"bad -p {args.primes!r}; expected comma-separated primes"
        ) from None
    if not ps:
        raise ValueError(f"no primes in -p {args.primes!r}")
    if args.e_max < 1:
        raise ValueError(f"-e must be at least 1, got {args.e_max}")
    if args.q_max < 2:
        raise ValueError(f"--q-max must be at least 2, got {args.q_max}")
    for p in ps:
        if p > args.q_max:
            raise ValueError(
                f"-p {p} is above --q-max {args.q_max}, so it has no witness rows"
            )
    if args.corpus:
        rings = default_corpus()
    else:
        rings = [_resolve_ring(args)]
    report = run_corpus(ps, args.e_max, rings=rings, q_max=args.q_max, cap=args.cap)

    if args.format == "json":
        payload = report_to_json(report)
    elif args.format == "csv":
        payload = report_to_csv(report)
    else:
        lines = []
        for v in report.verdicts:
            rel = "=" if v.equality else ("<" if v.inequality_holds else ">")
            lines.append(
                f"{v.ring} p={v.p}: |tors Cl| = {v.torsion_cardinality} "
                f"{rel} {1 / v.exact_signature} = 1/s  "
                f"(s = {v.exact_signature}, {len(v.witnesses)} witness rows)"
            )
        for err in report.errors:
            lines.append(f"{err.ring} p={err.p}: {err.kind}: {err.message}")
        lines.append(
            f"verdicts: {len(report.verdicts)}  errors: {len(report.errors)}  "
            f"all_hold: {report.all_hold}"
        )
        payload = "\n".join(lines) + "\n"

    if args.out:
        _write_file(args.out, payload)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(payload)

    if not report.all_hold:
        bad = next(v for v in report.verdicts if not v.inequality_holds)
        spec = next(s for s in rings if s.name == bad.ring)
        bundle_path = (args.out or "report") + ".violation.json"
        _write_file(
            bundle_path, json.dumps(violation_bundle(bad, spec), indent=2, sort_keys=True)
        )
        print(
            f"torsion bound VIOLATED for {bad.ring}; reproduction bundle "
            f"written to {bundle_path}",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    if any(e.kind != "cap" for e in report.errors):
        return EXIT_BAD_INPUT
    if report.errors:
        return EXIT_CAP
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricfsig",
        description=(
            "Class groups, Frobenius decompositions and F-signatures of "
            "normal affine semigroup rings"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cg = sub.add_parser("classgroup", help="divisor class group of a ring")
    _add_ring_args(p_cg)
    p_cg.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p_cg.set_defaults(func=cmd_classgroup)

    p_fs = sub.add_parser("fsig", help="F-signature sequence and exact value")
    _add_ring_args(p_fs)
    p_fs.add_argument("-p", type=int, default=2, help="prime characteristic")
    p_fs.add_argument("-e", "--e-max", type=int, default=1, dest="e_max")
    p_fs.add_argument("--exact", action="store_true", help="include exact value")
    p_fs.add_argument("--divisor", help="comma-separated divisor coefficients")
    p_fs.add_argument("--cap", type=int, default=None)
    p_fs.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p_fs.set_defaults(func=cmd_fsig)

    p_dc = sub.add_parser("decompose", help="summand classes of F^e_* R(D)")
    _add_ring_args(p_dc)
    p_dc.add_argument("-p", type=int, default=2)
    p_dc.add_argument("-e", type=int, default=1)
    p_dc.add_argument("--divisor", help="comma-separated divisor coefficients")
    p_dc.add_argument("--detail", action="store_true", help="list per-coset summands")
    p_dc.add_argument("--cap", type=int, default=None)
    p_dc.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p_dc.set_defaults(func=cmd_decompose)

    p_vf = sub.add_parser("verify", help="check the torsion bound |tors Cl| <= 1/s")
    _add_ring_args(p_vf, required=False)
    p_vf.add_argument("--corpus", action="store_true", help="all builtin rings")
    p_vf.add_argument("-p", "--primes", default="2,3,5", help="comma-separated primes")
    p_vf.add_argument("-e", "--e-max", type=int, default=4, dest="e_max")
    p_vf.add_argument("--q-max", type=int, default=256, dest="q_max")
    p_vf.add_argument("--cap", type=int, default=None)
    p_vf.add_argument("--out", help="write the report to this path")
    p_vf.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p_vf.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        if not (args.corpus or args.builtin or args.ring):
            parser.error("verify needs --corpus, --builtin or --ring")
        if args.corpus and (args.builtin is not None or args.ring is not None):
            parser.error("verify --corpus takes no --builtin or --ring")
    try:
        if "cap" in vars(args):
            # resolved once, so that a bad cap is one error before any work
            args.cap = resolve_cap(args.cap)
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (RingFormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


class _ClosedStdout:
    """``sys.stdout`` when fd 1 was closed at start: a write fails as one
    on the closed descriptor would, and nothing is left to flush."""

    def write(self, text):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))

    def flush(self):
        pass


def run():
    """Run ``main`` on the process's arguments, flush, and end the process
    with its code.  A write to stdout that fails, in ``main`` or in the
    flush, is one line on stderr and exit 2 (a closed pipe, a full disk, a
    closed fd 1); ``os._exit`` keeps the interpreter from reporting it
    again."""
    message = ""
    if sys.stdout is None:
        sys.stdout = _ClosedStdout()
    try:
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        code = EXIT_BAD_INPUT
        message = f"error: cannot write standard output: {exc.strerror or exc}\n"
    try:
        sys.stderr.write(message)
        sys.stderr.flush()
    except (AttributeError, OSError):
        pass  # stderr is closed or unwritable too; the code still stands
    os._exit(code)


if __name__ == "__main__":
    run()
