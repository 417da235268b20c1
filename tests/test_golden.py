"""The command corpus of ``regen_golden.py`` against its pinned digests:
every listed command keeps its exit code and the bytes of its stdout and
stderr.  After a deliberate output change, rewrite the file with
``PYTHONPATH=src python tests/regen_golden.py --write`` and name the moved
commands in CHANGES.md."""

import hashlib
import json
import subprocess
import sys

from regen_golden import GOLDEN, RING_FILES, changed, commands, run_all
from test_cli import cli_env


def test_golden_corpus_lists_every_command():
    assert [e["argv"] for e in json.loads(GOLDEN.read_text())] == commands()


def test_golden_corpus_bytes_unchanged():
    want = json.loads(GOLDEN.read_text())
    assert changed(want, run_all([e["argv"] for e in want])) == []


REPORT = ["verify", "--builtin", "an:3", "-p", "2", "-e", "2"]
# beyond one entry per subcommand and format: argparse's exit 2, a
# ValueError's exit 2, exit 3, --detail past the pipe's buffer, and --out
THROUGH_EXITS = [
    ["classgroup", "--builtin", "an:2", "--format", "xml"],
    ["decompose", "--builtin", "an:3", "--divisor", "a,b"],
    ["decompose", "--builtin", "quadric", "-p", "2", "-e", "5", "--cap", "100"],
    ["decompose", "--builtin", "quadric", "-p", "2", "-e", "5",
     "--divisor=3,-7,11,2", "--detail", "--format", "json"],
    [*REPORT, "--out", "report.txt"],
]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_golden_sample_through_python_m(tmp_path):
    # the corpus runs main in-process; a child of ``python -m toricfsig``
    # ends through cli.run instead, and must give the same bytes
    want = json.loads(GOLDEN.read_text())
    by_kind = {}
    for entry in want:
        argv = entry["argv"]
        if "klein.json" in argv and "--format" in argv:
            by_kind[argv[0], argv[argv.index("--format") + 1]] = argv
    assert len(by_kind) == 12
    sample = [*by_kind.values(), *THROUGH_EXITS]
    for name, text in RING_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    env = cli_env(COLUMNS="80")
    got = []
    for argv in sample:
        res = subprocess.run([sys.executable, "-m", "toricfsig", *argv],
                             capture_output=True, cwd=tmp_path, env=env)
        got.append({"argv": argv, "code": res.returncode,
                    "stdout": _digest(res.stdout), "stderr": _digest(res.stderr)})
    pinned = [e for e in want if e["argv"] in sample]
    assert len(pinned) == len(sample)
    assert changed(pinned, got) == []
    # the report file holds what the command prints without --out
    report = _digest((tmp_path / "report.txt").read_bytes())
    assert report == run_all([REPORT])[0]["stdout"]
