"""The command corpus of ``regen_golden.py`` against its pinned digests:
every listed command keeps its exit code and the bytes of its stdout and
stderr.  After a deliberate output change, rewrite the file with
``PYTHONPATH=src python tests/regen_golden.py --write`` and name the moved
commands in CHANGES.md."""

import json

from regen_golden import GOLDEN, changed, commands, run_all


def test_golden_corpus_lists_every_command():
    assert [e["argv"] for e in json.loads(GOLDEN.read_text())] == commands()


def test_golden_corpus_bytes_unchanged():
    want = json.loads(GOLDEN.read_text())
    assert changed(want, run_all([e["argv"] for e in want])) == []
