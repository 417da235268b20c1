"""Set-up work of one workload, run as a fresh child and timed from outside.

    python3 perfbench/setup_child.py TOKEN...

Imports ``toricfsig.cli``, resolves and validates every ring the workload
uses, and computes its class group; it counts no cosets.  Tokens are
``corpus`` (the default corpus), ``builtin:ADDRESS`` or ``ring:PATH``.
"""

import sys

import toricfsig.cli  # noqa: F401  (the import is part of set-up)
from toricfsig import class_group, default_corpus, load_ring_file, parse_builtin, validate


def resolve(token: str):
    kind, _, arg = token.partition(":")
    if kind == "corpus":
        return default_corpus()
    if kind == "builtin":
        return [parse_builtin(arg)]  # builtins are validated on construction
    if kind == "ring":
        spec = load_ring_file(arg)
        problems = validate(spec)
        if problems:
            raise SystemExit(f"invalid ring {arg}: {problems}")
        return [spec]
    raise SystemExit(f"unknown set-up token {token!r}")


if __name__ == "__main__":
    for token in sys.argv[1:]:
        for spec in resolve(token):
            class_group(spec)
