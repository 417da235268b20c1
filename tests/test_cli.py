import contextlib
import errno
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import DENSE, KLEIN, MIXED, listed_cosets
from test_frobenius import random_spec
from toricfsig.cli import main
from toricfsig.rings import ring_to_dict, validate

PKG_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def cli_env(**extra):
    """The environment of a child interpreter: the package on its path, no
    TORICFSIG_CAP, then ``extra``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = PKG_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("TORICFSIG_CAP", None)
    env.update(extra)
    return env


def run_cli(*args, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "toricfsig"] + list(args),
        capture_output=True,
        text=True,
        env=cli_env(**(env_extra or {})),
    )


def test_classgroup_builtin():
    res = run_cli("classgroup", "--builtin", "an:4")
    assert res.returncode == 0
    assert "Z/4" in res.stdout
    assert "torsion cardinality: 4" in res.stdout


def test_classgroup_quadric_and_poly():
    res = run_cli("classgroup", "--builtin", "quadric")
    assert res.returncode == 0
    assert "class group: Z" in res.stdout
    assert "torsion cardinality: 1" in res.stdout
    res = run_cli("classgroup", "--builtin", "poly:2")
    assert "trivial" in res.stdout


def test_classgroup_json_format():
    res = run_cli("classgroup", "--builtin", "veronese:3", "--format", "json")
    doc = json.loads(res.stdout)
    assert doc["invariant_factors"] == [3]
    assert doc["free_rank"] == 0
    assert doc["torsion_cardinality"] == 3


def test_fsig_sequence_and_exact():
    res = run_cli("fsig", "--builtin", "an:2", "-p", "2", "-e", "3", "--exact")
    assert res.returncode == 0
    assert "s_e=1/2" in res.stdout
    assert "q=8" in res.stdout
    assert "exact F-signature: 1/2" in res.stdout


def test_fsig_quadric_exact():
    res = run_cli("fsig", "--builtin", "quadric", "--exact")
    assert res.returncode == 0
    assert "exact F-signature: 2/3" in res.stdout


def test_fsig_poly_trivial():
    res = run_cli("fsig", "--builtin", "poly:1", "-p", "2", "-e", "1")
    assert res.returncode == 0
    assert "s_e=1" in res.stdout


def test_decompose_an2():
    res = run_cli("decompose", "--builtin", "an:2", "-p", "2", "-e", "1")
    assert res.returncode == 0
    assert "class [0]: 2" in res.stdout
    assert "class [1]: 2" in res.stdout


def test_decompose_poly_free():
    res = run_cli("decompose", "--builtin", "poly:2", "-p", "3", "-e", "1")
    assert res.returncode == 0
    assert "class 0: 9" in res.stdout


def test_decompose_with_divisor_total():
    res = run_cli(
        "decompose",
        "--builtin",
        "an:3",
        "-p",
        "2",
        "-e",
        "2",
        "--divisor",
        "1,0",
        "--format",
        "json",
    )
    doc = json.loads(res.stdout)
    assert doc["rank"] == 16
    assert sum(s["multiplicity"] for s in doc["summands"]) == 16


def test_decompose_detail_lists_all_cosets():
    res = run_cli(
        "decompose", "--builtin", "an:2", "-p", "2", "-e", "1",
        "--detail", "--format", "json",
    )
    doc = json.loads(res.stdout)
    assert len(doc["cosets"]) == 4
    assert {"w": ["1/2", "3/2"], "divisor": [0, 1]} in doc["cosets"]


def test_decompose_bad_divisor_exits_2():
    res = run_cli("decompose", "--builtin", "an:2", "--divisor", "1,2,3")
    assert res.returncode == 2
    res = run_cli("decompose", "--builtin", "an:2", "--divisor", "a,b")
    assert res.returncode == 2


def test_verify_single_ring_strict():
    res = run_cli("verify", "--builtin", "quadric", "-p", "2", "-e", "2")
    assert res.returncode == 0
    assert "1 < 3/2" in res.stdout
    assert "all_hold: True" in res.stdout


def test_verify_cap_exit_code():
    res = run_cli("verify", "--builtin", "an:2", "--cap", "1")
    assert res.returncode == 3


def test_env_var_cap(tmp_path):
    res = run_cli(
        "decompose", "--builtin", "an:2", "-p", "2", "-e", "3",
        env_extra={"TORICFSIG_CAP": "5"},
    )
    assert res.returncode == 3
    assert "TORICFSIG_CAP" in res.stderr


def test_bad_cap_exits_2():
    # a negative cap is bad input, not an overrun; a cap of 0 is valid
    argv = ["decompose", "--builtin", "an:3", "-p", "2", "-e", "2"]
    for extra, env_cap, name in (
        (["--cap", "-5"], None, "--cap"),
        (["--cap", "-1"], "100", "--cap"),
        ([], "-1", "TORICFSIG_CAP"),
        ([], "abc", "TORICFSIG_CAP"),
    ):
        code, out, err = _run_in_process(argv + extra, env_cap)
        assert (code, out) == (2, ""), (extra, env_cap)
        assert err.startswith(f"error: {name} must be"), err
    assert _run_in_process(argv, "abc")[2] == (
        "error: TORICFSIG_CAP must be an integer, got 'abc'\n"
    )
    code, out, err = _run_in_process(["verify", "--builtin", "an:3", "-e", "2", "--cap", "-2"])
    assert (code, out, err) == (2, "", "error: --cap must be at least 0, got -2\n")
    code, _, err = _run_in_process(argv + ["--cap", "0"])
    assert code == 3 and "over the cap of 0" in err


def test_unknown_builtin_exits_2():
    res = run_cli("classgroup", "--builtin", "nope:1")
    assert res.returncode == 2
    res = run_cli("classgroup", "--builtin", "quadric:3")
    assert res.returncode == 2
    assert res.stderr == "error: builtin ring 'quadric:3' takes no parameters\n"


@pytest.mark.parametrize("command", ["classgroup", "fsig", "decompose"])
def test_empty_builtin_address_exits_2(command):
    # an empty address is an unknown ring, not a missing --ring file
    assert _run_in_process([command, "--builtin", ""]) == (
        2, "", "error: unknown builtin ring ''\n"
    )


def test_non_prime_characteristic_exits_2():
    res = run_cli("fsig", "--builtin", "an:2", "-p", "4", "-e", "1")
    assert res.returncode == 2
    assert "not prime" in res.stderr
    res = run_cli("decompose", "--builtin", "an:2", "-p", "9")
    assert res.returncode == 2


def test_fsig_needs_at_least_one_term():
    for e in ("0", "-2"):
        res = run_cli("fsig", "--builtin", "an:3", "-e", e)
        assert res.returncode == 2
        assert res.stderr == "error: e_max must be at least 1\n"
        assert res.stdout == ""


def test_large_characteristic_is_decided_at_once():
    # 2^61 - 1 is prime, so q^d = p^2 meets the cap; p >= 2^64 is refused
    start = time.perf_counter()
    res = run_cli("decompose", "--builtin", "an:3", "-p", str(2**61 - 1), "-e", "1", "--cap", "10")
    assert time.perf_counter() - start < 1.0
    assert res.returncode == 3
    assert "over the cap of 10" in res.stderr
    assert "Traceback" not in res.stderr
    res = run_cli("decompose", "--builtin", "an:3", "-p", str(2**64 + 13))
    assert res.returncode == 2
    assert res.stderr == f"error: p = {2**64 + 13} is too large; p must be below 2^64\n"


def test_invalid_ring_file_exits_2(tmp_path):
    path = tmp_path / "halfplane.json"
    path.write_text(
        json.dumps(
            {
                "name": "halfplane",
                "dim": 2,
                "lattice_basis": [[1, 0], [0, 1]],
                "facets": [["1", "0"]],
            }
        )
    )
    res = run_cli("classgroup", "--ring", str(path))
    assert res.returncode == 2
    assert "cone not pointed" in res.stderr

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{{{{")
    res = run_cli("classgroup", "--ring", str(garbage))
    assert res.returncode == 2


# nested too deep for the JSON parser (990 levels already are, in a fresh
# Python 3.11 process)
DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize(
    "name, content",
    [
        ("brackets.json", DEEP.encode()),
        # a valid document but for one facet entry
        ("deep_facet.json", json.dumps(
            {"name": "x", "dim": 2, "lattice_basis": [[1, 0], [0, 1]],
             "facets": ["@", ["0", "1"]]}).replace('"@"', DEEP).encode()),
        ("latin1.json", '{"name": "\u00e9"}'.encode("latin-1")),
    ],
    ids=["brackets", "deep_facet", "latin1"],
)
def test_unparseable_ring_file_is_one_error_line(tmp_path, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    code, out, err = _run_in_process(["classgroup", "--ring", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read ring file {path}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


def test_zero_denominator_facet_exits_2(tmp_path):
    path = tmp_path / "bad_fraction.json"
    path.write_text(
        json.dumps(
            {
                "name": "bad_fraction",
                "dim": 2,
                "lattice_basis": [[1, 0], [0, 1]],
                "facets": [["1/0", "0"], ["0", "1"]],
            }
        )
    )
    for args in (("classgroup",), ("verify", "-p", "2,3", "-e", "2")):
        res = run_cli(*args, "--ring", str(path))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert "malformed ring definition" in res.stderr


def test_zero_dimension_ring_exits_2(tmp_path):
    path = tmp_path / "bad_dim0.json"
    path.write_text(
        json.dumps({"name": "bad_dim0", "dim": 0, "lattice_basis": [], "facets": []})
    )
    for args in (("classgroup",), ("verify", "-p", "2,3", "-e", "2")):
        res = run_cli(*args, "--ring", str(path))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert "dimension must be at least 1" in res.stderr


def test_non_integral_ring_entries_exit_2(tmp_path):
    # int() reads the first two as dim 2 and basis [[1, 0], [0, 1]], a valid
    # ring, and raises OverflowError on the third
    good = {"name": "x", "dim": 2, "lattice_basis": [[1, 0], [0, 1]],
            "facets": [["1", "0"], ["0", "1"]]}
    cases = [("dim", 2.5), ("lattice_basis", [[1.5, 0], [0, 1]]), ("dim", float("inf"))]
    for n, (key, value) in enumerate(cases):
        path = tmp_path / f"bad_{n}.json"
        path.write_text(json.dumps({**good, key: value}))
        res = run_cli("classgroup", "--ring", str(path))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert "must be an integer" in res.stderr


def test_verify_corpus_json_report(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli(
        "verify", "--corpus", "-p", "2,3", "-e", "2",
        "--out", str(out), "--format", "json",
    )
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["all_hold"] is True
    assert len(doc["verdicts"]) == 28


def test_verify_ring_file_round_trip(tmp_path):
    out1 = tmp_path / "builtin.json"
    res = run_cli(
        "verify", "--builtin", "an:3", "-p", "2", "-e", "2",
        "--out", str(out1), "--format", "json",
    )
    assert res.returncode == 0
    doc = json.loads(out1.read_text())
    ring_path = tmp_path / "ring.json"
    ring_path.write_text(json.dumps(doc["verdicts"][0]["ring_def"]))

    out2 = tmp_path / "fromfile.json"
    res = run_cli(
        "verify", "--ring", str(ring_path), "-p", "2", "-e", "2",
        "--out", str(out2), "--format", "json",
    )
    assert res.returncode == 0
    doc2 = json.loads(out2.read_text())
    assert doc2["verdicts"] == doc["verdicts"]


def test_machine_output_deterministic():
    args = ["verify", "--builtin", "an:4", "-p", "2,3", "-e", "2", "--format", "json"]
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0

    args = ["decompose", "--builtin", "veronese:3", "-p", "2", "-e", "2",
            "--format", "csv"]
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_verify_requires_a_ring_source():
    res = run_cli("verify")
    assert res.returncode == 2


@pytest.mark.parametrize("ring", [["--builtin", "an:3"], ["--builtin", ""],
                                  ["--ring", "ring.json"]])
def test_verify_corpus_refuses_a_ring(ring):
    # --corpus runs the built-in corpus, so a ring beside it would be dropped
    code, out, err = _run_in_process(["verify", "--corpus", *ring, "-p", "2", "-e", "1"])
    assert code == 2 and out == ""
    assert "verify --corpus takes no --builtin or --ring" in err


@pytest.mark.parametrize("command", ["fsig", "decompose"])
def test_empty_divisor_exits_2(command):
    # an empty --divisor is a bad divisor, not the default one
    assert _run_in_process([command, "--builtin", "an:3", "--divisor", ""]) == (
        2, "", "error: bad divisor ''; expected comma-separated integers\n"
    )


def test_verify_counts_torsion_without_listing_the_classes():
    # n_e sums the summands with no free part, so a torsion subgroup past the
    # cap does not stop a count of q^d cosets within it
    for argv in (["--builtin", f"an:{2**62}", "-p", "3", "-e", "2"],
                 ["--builtin", "an:100000", "-p", "2", "-e", "2", "--cap", "50000"]):
        code, out, err = _run_in_process(["verify", *argv, "--format", "json"])
        assert code == 0, err
        (verdict,) = json.loads(out)["verdicts"]
        assert verdict["equality"]
        assert [w["n_e"] for w in verdict["witnesses"]] == [
            w["rank"] for w in verdict["witnesses"]
        ]


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


def _traced_peaks(argv):
    """The traced memory peaks of ``main(argv)`` without and with
    ``--detail``, its output discarded."""
    import tracemalloc

    peaks = []
    for extra in ([], ["--detail"]):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(_Discard()):
                assert main(argv + extra) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_detail_streams_its_rows(fmt):
    # --detail writes the q^d = 32768 coset rows of quadric at q = 32 as
    # they are listed, one 4096-row block at a time: the traced peak stays
    # below 2.5 MB over the plain count's, where holding every row before
    # the first write took 4.6 MB in text and 5.4 MB in json
    peaks = _traced_peaks(["decompose", "--builtin", "quadric", "-p", "2", "-e", "5",
                           "--divisor=3,-7,11,2", "--format", fmt])
    plain, detail = peaks
    assert detail < plain + 3_500_000, peaks


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_detail_in_dimension_1_streams_its_rows(fmt):
    # in d = 1 the one prefix row is every coset, here q = 65536 of them:
    # the rows still go out a window at a time, with no text, Fraction or
    # divisor kept per row, where keeping them took 13.6 MB more in text
    # and 14.2 MB in json
    peaks = _traced_peaks(["decompose", "--builtin", "poly:1", "-p", "2", "-e", "16",
                           "--format", fmt])
    plain, detail = peaks
    assert detail < plain + 3_500_000, peaks


def test_detail_keeps_its_memos_bounded():
    # the 65536 rows of an:100001 at q = 2^8 carry q^2 distinct numerators
    # (basis [[1, 1], [0, 100001]]): the writer's memo keeps at most
    # memo_limit(q) = 4096 texts, where one text per numerator peaked at 12 MB
    import tracemalloc

    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Discard()):
            assert main(["decompose", "--builtin", "an:100001", "-p", "2", "-e", "8",
                         "--detail"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000, peak


def test_detail_text_of_a_numerator_is_that_of_its_fraction():
    from fractions import Fraction

    from toricfsig.cli import _fraction_text

    for q in (2, 3, 9, 1024):
        for n in range(-3 * q, 3 * q + 1):
            assert _fraction_text(n, q) == str(Fraction(n, q)), (n, q)


def test_detail_formats_each_numerator_once(monkeypatch):
    # the 32768 rows of quadric at q = 32 have three coordinates each, with
    # 32 numerators between them: each numerator's text is made once, where
    # one Fraction.__str__ per coordinate and row made 98304
    from fractions import Fraction

    from toricfsig import cli
    from toricfsig.divisors import WeilDivisor
    from toricfsig.frobenius import FrobeniusContext, coset_rows
    from toricfsig.rings import parse_builtin

    formatted = []
    real = cli._fraction_text
    monkeypatch.setattr(cli, "_fraction_text",
                        lambda n, q: formatted.append(Fraction(n, q)) or real(n, q))
    code, out, err = _run_in_process(["decompose", "--builtin", "quadric", "-p", "2",
                                      "-e", "5", "--detail", "--format", "json"])
    assert code == 0, err
    cosets = json.loads(out)["cosets"]
    numerators = {Fraction(x) * 32 for row in cosets for x in row["w"]}
    assert len(cosets) == 32**3 and len(numerators) == 32
    assert len(formatted) == len(set(formatted)) <= len(numerators)
    # the listing itself yields integer numerators and floors, no Fraction
    spec = parse_builtin("quadric")
    numerators, runs = next(coset_rows(spec, WeilDivisor((0,) * 4), FrobeniusContext(2, 5)))
    assert numerators == [(0, 0), (0, 0), (0, 1)]
    assert runs == [(1, (0, 0, 0, 0)), (31, (0, 0, 0, -1))]


def test_detail_formats_each_numerator_of_a_long_cycle_once(monkeypatch):
    # an:8 at q = 2^9, basis [[1, 1], [0, 8]]: prefix row c holds the q
    # numerators c + 8t, met again 8 rows on, 9q = 4608 in all; a memo of a
    # fixed 4096 entries was emptied about once per 8 rows and made the
    # texts of nearly every row again
    from fractions import Fraction

    from toricfsig import cli

    formatted = []
    real = cli._fraction_text
    monkeypatch.setattr(cli, "_fraction_text",
                        lambda n, q: formatted.append(n) or real(n, q))
    with contextlib.redirect_stdout(_Discard()):
        assert main(["decompose", "--builtin", "an:8", "-p", "2", "-e", "9",
                     "--detail"]) == 0
    q = 512
    assert sorted(formatted) == sorted({c + 8 * t for c in range(q) for t in range(q)})


def test_main_callable_in_process(capsys):
    code = main(["classgroup", "--builtin", "an:2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Z/2" in out


def _falsify_verdicts(monkeypatch):
    # the violated-inequality path is unreachable with correct math, so
    # falsify a verdict to prove the sentinel exit code and bundle wiring
    import toricfsig.cli as cli_mod
    from toricfsig.rings import parse_builtin
    from toricfsig.verify import CorpusReport, verify_ring

    spec = parse_builtin("an:2")
    good = verify_ring(spec, 2, 1)
    bad = type(good)(
        ring=good.ring,
        p=good.p,
        torsion_cardinality=good.torsion_cardinality,
        exact_signature=good.exact_signature,
        inequality_holds=False,
        equality=False,
        witnesses=good.witnesses,
        ring_def=good.ring_def,
    )
    monkeypatch.setattr(
        cli_mod, "run_corpus", lambda *a, **k: CorpusReport((bad,), ())
    )


def test_violation_exit_code_and_bundle(tmp_path, monkeypatch, capsys):
    _falsify_verdicts(monkeypatch)
    out = tmp_path / "report.json"
    code = main(
        ["verify", "--builtin", "an:2", "-p", "2", "-e", "1",
         "--format", "json", "--out", str(out)]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "VIOLATED" in captured.err
    bundle = json.loads((tmp_path / "report.json.violation.json").read_text())
    assert bundle["ring_def"]["name"] == "an:2"
    assert bundle["coset_detail"]


def test_unwritable_out_exits_2(tmp_path, monkeypatch):
    # exit 1 is kept for a violated bound, so a report or bundle that cannot
    # be written is bad input
    missing = str(tmp_path / "missing" / "r.json")
    res = run_cli("verify", "--builtin", "an:2", "-e", "1", "--out", missing)
    assert res.returncode == 2
    assert res.stderr.startswith(f"error: cannot write {missing}: ")
    assert "Traceback" not in res.stderr
    # the report is written, then the bundle path is a directory
    _falsify_verdicts(monkeypatch)
    out = tmp_path / "report.json"
    (tmp_path / "report.json.violation.json").mkdir()
    code, _, err = _run_in_process(
        ["verify", "--builtin", "an:2", "-p", "2", "-e", "1", "--out", str(out)]
    )
    assert code == 2
    assert f"error: cannot write {out}.violation.json: " in err
    assert out.read_text().startswith("an:2 p=2:")


def test_csv_verify_format():
    res = run_cli("verify", "--builtin", "an:2", "-p", "2", "-e", "2",
                  "--format", "csv")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0].startswith("ring,p,torsion_cardinality,exact_signature")
    assert lines[1].startswith("an:2,2,2,1/2,True,True")


# Values a hand-written ring file might hold in place of an integer or a
# fraction string, including those that once crashed or silently truncated.
ODD_VALUES = st.sampled_from(
    [1.5, 2.0, -0.5, float("inf"), True, False, None, "2", "1/0", "x", []]
)
FRACTION = st.builds(
    lambda n, d: f"{n}/{d}", st.integers(-3, 3), st.sampled_from([1, 1, 1, 2])
)


def _spoil(draw, rows):
    """Sometimes replace one entry of the nonempty rows by an odd value."""
    cells = [(i, j) for i, row in enumerate(rows) for j in range(len(row))]
    if cells and draw(st.integers(0, 3)) == 0:
        i, j = draw(st.sampled_from(cells))
        rows[i][j] = draw(ODD_VALUES)


# every subcommand at its smallest q; the wide documents go through
# classgroup only, since their d is past the exact volume's limit
FUZZ_COMMANDS = (
    ["classgroup"],
    ["decompose", "-p", "2", "-e", "1"],
    ["fsig", "-p", "2", "-e", "1"],
    ["verify", "-p", "2", "-e", "1"],
)


@st.composite
def ring_documents(draw):
    """A ring document and the commands to run on it."""
    branch = draw(st.integers(0, 3))
    if branch == 0:
        # the coordinate facets of d = 5..16, whose unit region has 2^d
        # vertices, and up to 3 more rows
        d = draw(st.integers(5, 16))
        basis = [[int(i == j) for j in range(d)] for i in range(d)]
        facets = [[str(x) for x in row] for row in basis]
        facets += [[draw(FRACTION) for _ in range(d)] for _ in range(draw(st.integers(0, 3)))]
        doc = {"name": "wide", "dim": d, "lattice_basis": basis, "facets": facets}
        return doc, FUZZ_COMMANDS[:1]
    if branch == 1:
        # a random valid ring in d = 1..4, or one with a planted defect
        kind = draw(st.sampled_from(("plain", "redundant", "flat", "duplicate", "multiple")))
        rng = draw(st.randoms(use_true_random=False))
        d = draw(st.integers(1, 4))
        spec = random_spec(rng, d, kind)
        while kind == "plain" and validate(spec):
            spec = random_spec(rng, d)
        return ring_to_dict(spec), FUZZ_COMMANDS
    d = draw(st.integers(0, 4))
    if d and draw(st.booleans()):
        # identity basis and coordinate facets first, so the ring can validate
        basis = [[int(i == j) for j in range(d)] for i in range(d)]
        facets = [[str(int(i == j)) for j in range(d)] for i in range(d)]
    else:
        basis = [[draw(st.integers(-3, 3)) for _ in range(d)] for _ in range(d)]
        facets = []
    facets += [[draw(FRACTION) for _ in range(d)] for _ in range(draw(st.integers(0, 3)))]
    if facets and draw(st.booleans()):
        facets.append(list(facets[-1]))  # duplicate covector
    if draw(st.integers(0, 3)) == 0:
        facets.append(["0"] * d)  # zero covector
    _spoil(draw, basis)
    _spoil(draw, facets)
    doc = {"name": "fuzz", "dim": d, "lattice_basis": basis, "facets": facets}
    if draw(st.integers(0, 5)) == 0:
        doc["dim"] = draw(st.one_of(st.integers(-1, 5), ODD_VALUES))
    return doc, FUZZ_COMMANDS


@settings(max_examples=150, derandomize=True, deadline=None)
@given(ring_documents())
@example(({"name": "empty", "dim": 0, "lattice_basis": [], "facets": []}, FUZZ_COMMANDS))
@example(({"name": "nofacets", "dim": 2, "lattice_basis": [[1, 0], [0, 1]], "facets": []},
          FUZZ_COMMANDS))
def test_ring_documents_exit_0_2_or_3_without_traceback(case):
    # each command gives its exit code, at most one line on stderr and no
    # traceback, within a CPU budget that no double description of a unit
    # region with 2^16 vertices would meet
    doc, commands = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ring.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command, *options in commands:
            err = io.StringIO()
            start = time.process_time()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--ring", path, *options])
            spent = time.process_time() - start
            assert code in (0, 2, 3), (command, err.getvalue())
            assert len(err.getvalue().splitlines()) <= 1, (command, err.getvalue())
            assert "Traceback" not in err.getvalue()
            assert spent < 1.0, (command, spent)


def _run_in_process(argv, env_cap=None):
    """Exit code, stdout and stderr of ``main(argv)``; argparse errors exit
    through SystemExit and count by their code."""
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.pop("TORICFSIG_CAP", None)
    if env_cap is not None:
        os.environ["TORICFSIG_CAP"] = env_cap
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.environ.pop("TORICFSIG_CAP", None)
        if saved is not None:
            os.environ["TORICFSIG_CAP"] = saved
    return code, out.getvalue(), err.getvalue()


def test_builtins_run_no_vertex_enumeration(monkeypatch):
    # builtins are valid by construction: classgroup and decompose never
    # enumerate the unit region's vertices, 2^16 of them for poly:16, in an
    # uncapped double description
    from toricfsig import geometry

    calls = []
    monkeypatch.setattr(geometry, "_extreme_rays", lambda *a: calls.append(a) or [])
    for argv in (["classgroup", "--builtin", "poly:16"],
                 ["decompose", "--builtin", "poly:16", "-p", "2", "-e", "1"]):
        code, _, err = _run_in_process(argv)
        assert code == 0, err
    assert calls == []
    # verify reads the vertices only below its dimension limit
    code, out, err = _run_in_process(["verify", "--builtin", "poly:5", "-p", "2", "-e", "1"])
    assert code == 2
    assert "exact volume supports dimension <= 4, got 5" in out + err
    assert calls == []


def test_wide_ring_file_validates_on_its_cone(tmp_path, monkeypatch):
    # the coordinate facets of d = 16 give a cone of 16 rays, and validate
    # never enumerates the 2^16 vertices of the unit region
    from toricfsig import geometry

    identity = [[int(i == j) for j in range(16)] for i in range(16)]
    doc = {"name": "poly16", "dim": 16, "lattice_basis": identity,
           "facets": [[str(x) for x in row] for row in identity]}
    path = tmp_path / "poly16.json"
    path.write_text(json.dumps(doc))
    calls = []
    monkeypatch.setattr(geometry, "_vertex_rays", lambda *a: calls.append(a) or [])
    start = time.process_time()
    code, out, err = _run_in_process(["classgroup", "--ring", str(path)])
    assert code == 0, err
    assert time.process_time() - start < 1.0
    assert "class group: trivial" in out
    assert calls == []


def test_ring_file_cone_is_capped(tmp_path):
    # classgroup has no --cap, so validate reads TORICFSIG_CAP: the pair
    # tests of the 28-facet cone's double description pass it at once, and
    # the 16 rays of the d = 16 coordinate facets need none
    from regen_golden import RING_FILES

    paths = {}
    for name in ("cyclic28.json", "poly16.json"):
        paths[name] = tmp_path / name
        paths[name].write_text(RING_FILES[name])
    start = time.process_time()
    code, out, err = _run_in_process(["classgroup", "--ring", str(paths["cyclic28.json"])], "10")
    assert (code, out) == (3, "")
    assert err == ("error: the cone's double description needs 20 pair tests, over the "
                   "cap of 10; raise it with --cap or TORICFSIG_CAP\n")
    code, out, err = _run_in_process(["classgroup", "--ring", str(paths["poly16.json"])], "10")
    assert code == 0, err
    assert "class group: trivial" in out
    assert time.process_time() - start < 1.0


def _fresh(body):
    """Run ``body`` in a fresh interpreter: the JSON value it leaves in
    ``result``, the modules it loaded, and its stderr."""
    code = (
        "import sys, contextlib, io, json\n"
        "before = set(sys.modules)\n"
        "result = None\n"
        f"{body}\n"
        "print(json.dumps([result, sorted(set(sys.modules) - before)]))\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=cli_env())
    result, modules = json.loads(res.stdout) if res.returncode == 0 else (None, ())
    return result, set(modules), res.stderr


def _main_loads(argv):
    """Exit code of ``main(argv)`` in a fresh interpreter, the modules that
    importing the CLI and running it loaded, and stderr."""
    return _fresh(
        "import toricfsig.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    result = toricfsig.cli.main({argv!r})"
    )


RING_FILE = "<random ring file>"
DENSE_FILE = "<dense ring file>"


def _ring_files(argv, tmp_path):
    """argv with the ring-file placeholders replaced by written files."""
    docs = {DENSE_FILE: DENSE}
    if RING_FILE in argv:
        rng = random.Random(11)
        spec = random_spec(rng, 3)
        while validate(spec):
            spec = random_spec(rng, 3)
        docs[RING_FILE] = ring_to_dict(spec)
    out = []
    for a in argv:
        if a in docs:
            path = tmp_path / "ring.json"
            path.write_text(json.dumps(docs[a]))
            a = str(path)
        out.append(a)
    return out


@pytest.mark.parametrize(
    "argv",
    [
        ["classgroup", "--builtin", "an:3"],
        ["decompose", "--builtin", "quadric", "-p", "2", "-e", "2", "--detail",
         "--format", "json"],
        ["decompose", "--builtin", "quadric", "-p", "2", "-e", "2", "--detail",
         "--format", "text"],
        ["decompose", "--builtin", f"an:{2**62}", "-p", "3"],
        ["verify", "--builtin", "quadric", "-p", "2", "-e", "4"],
        ["fsig", "--builtin", "veronese:8", "-p", "3", "-e", "2"],
        ["decompose", "--builtin", "quadric", "-p", "7", "-e", "2",
         f"--divisor={10**25 + 3},-{10**25},7,{2 * 10**25}"],
        ["verify", "--ring", RING_FILE, "-p", "2,3", "-e", "2"],
        ["decompose", "--builtin", "quadric", "-p", "2", "-e", "7", "--divisor=3,-100,17,64"],
        ["verify", "--corpus", "-p", "2,3,5", "-e", "8"],
        ["decompose", "--builtin", "veronese:12", "-p", "3", "-e", "7"],
        ["fsig", "--builtin", "an:12", "-p", "2", "-e", "10", "--divisor=-700,1023"],
        ["decompose", "--builtin", "an:9", "-p", "2", "-e", "8",
         f"--divisor={-3 * 10**27 - 5},{10**19 + 1}"],
        ["decompose", "--ring", DENSE_FILE, "-p", "2", "-e", "5"],
    ],
    ids=["classgroup", "detail-json", "detail-text", "big-int", "small-verify",
         "small-fsig", "small-decompose", "random-ring-verify", "quadric-128",
         "corpus-verify", "veronese-2187", "cyclic-fsig-1024", "cyclic-256-big-twist",
         "dense-32"],
)
def test_command_does_not_load_numpy(argv, tmp_path):
    # no command loads numpy: the plane counts every plain count, dense or
    # sparse, and coset_rows lists the detail, both in Python integers
    rc, modules, err = _main_loads(_ring_files(argv, tmp_path))
    assert rc == 0, err
    assert "numpy" not in modules


@pytest.mark.parametrize(
    "body, want",
    [(f"dec = decompose(ring_from_dict({DENSE!r}), WeilDivisor((0,) * 5),"
      " FrobeniusContext(2, 5))\n"
      "result = sum(dec.summands.values())", 32**4),
     ("with contextlib.redirect_stdout(io.StringIO()):\n"
      "    result = main(['verify', '--corpus', '-p', '2,3,5', '-e', '8'])", 0),
     ("with contextlib.redirect_stdout(io.StringIO()):\n"
      "    result = main(['decompose', '--builtin', 'quadric', '-p', '2', '-e', '2',"
      " '--detail', '--format', 'json'])", 0),
     ("spec, ctx = parse_builtin('quadric'), FrobeniusContext(2, 4)\n"
      "dec = decompose(spec, WeilDivisor((0,) * 4), ctx)\n"
      "result = box_count_oracle(spec, ctx) == free_rank(dec)", True)],
    ids=["dense-32", "corpus-verify", "detail-json", "box-oracle"],
)
def test_runs_with_numpy_blocked(body, want):
    # with numpy blocked, importing it anywhere raises ImportError
    result, _, err = _fresh(
        "sys.modules['numpy'] = None\n"
        "from toricfsig.cli import main\n"
        "from toricfsig.divisors import WeilDivisor\n"
        "from toricfsig.frobenius import (\n"
        "    FrobeniusContext, box_count_oracle, decompose, free_rank)\n"
        "from toricfsig.rings import parse_builtin, ring_from_dict\n"
        f"{body}"
    )
    assert result == want, err


@pytest.mark.parametrize(
    "body",
    ["import toricfsig.cli",
     "import toricfsig.cli\n"
     "with contextlib.redirect_stdout(io.StringIO()):\n"
     "    result = toricfsig.cli.main(['classgroup', '--builtin', 'an:3'])"],
    ids=["import", "classgroup"],
)
def test_start_up_loads_no_dataclasses_or_inspect(body):
    # every command is a fresh process; the records are built without
    # dataclasses, whose import pulls in inspect, ast, dis and tokenize,
    # and csv is imported only by --format csv
    result, modules, err = _fresh(body)
    assert result in (None, 0), err
    assert "toricfsig.cli" in modules
    assert not modules & {"dataclasses", "inspect", "ast", "dis", "tokenize", "csv"}


ATEXIT_PROBE = (
    "import atexit, sys\n"
    "atexit.register(lambda: sys.stderr.write('atexit ran\\n'))\n"
    "from toricfsig.cli import run\n"
    "run()\n"
)


@pytest.mark.parametrize(
    "argv, code, teardown",
    [(["classgroup", "--builtin", "an:3"], 0, False), (["classgroup"], 2, True)],
    ids=["returned", "usage-error"],
)
def test_run_skips_teardown_unless_argparse_exits(argv, code, teardown):
    # a code that main returns ends the process through os._exit, after the
    # flush, so no atexit handler runs; argparse's SystemExit takes the
    # interpreter's normal exit, handlers included
    res = subprocess.run([sys.executable, "-c", ATEXIT_PROBE, *argv],
                         capture_output=True, text=True, env=cli_env())
    assert res.returncode == code, res.stderr
    assert ("atexit ran" in res.stderr) == teardown
    if code == 0:
        assert "torsion cardinality: 3" in res.stdout


@pytest.mark.parametrize("sink", ["closed-pipe", "dev-full"])
@pytest.mark.parametrize(
    "argv",
    [["classgroup", "--builtin", "an:3"],
     ["decompose", "--builtin", "quadric", "-p", "2", "-e", "5", "--detail",
      "--format", "json"]],
    ids=["at-flush", "in-main"],
)
def test_unwritable_stdout_exits_2_in_one_line(sink, argv):
    # the small output fails at run's flush, the 32,768 rows inside main
    if sink == "closed-pipe":
        read, fd = os.pipe()
        os.close(read)
        reason = os.strerror(errno.EPIPE)
    else:
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        fd = os.open("/dev/full", os.O_WRONLY)
        reason = os.strerror(errno.ENOSPC)
    try:
        res = subprocess.run([sys.executable, "-m", "toricfsig", *argv], stdout=fd,
                             stderr=subprocess.PIPE, text=True, env=cli_env())
    finally:
        os.close(fd)
    assert res.returncode == 2
    assert res.stderr.splitlines() == [f"error: cannot write standard output: {reason}"]


@pytest.mark.parametrize(
    "argv",
    [["classgroup", "--builtin", "an:3"],
     ["fsig", "--builtin", "an:3", "-p", "2", "-e", "2", "--exact"],
     ["decompose", "--builtin", "an:3"],
     ["decompose", "--builtin", "an:3", "--detail"],
     ["verify", "--builtin", "an:3", "-p", "2", "-e", "2"],
     ["verify", "--builtin", "an:3", "-p", "2", "-e", "2", "--out", "report.txt"]],
    ids=["classgroup", "fsig", "decompose", "detail", "verify", "verify-out"],
)
def test_closed_stdout_exits_2_in_one_line(argv, tmp_path):
    # fd 1 closed at start (the shell's >&-): Python starts with no
    # sys.stdout, and the first write fails as on any unwritable stdout
    res = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m",
                          "toricfsig", *argv],
                         stderr=subprocess.PIPE, text=True, cwd=tmp_path, env=cli_env())
    assert res.returncode == 2
    reason = os.strerror(errno.EBADF)
    assert res.stderr.splitlines() == [f"error: cannot write standard output: {reason}"]
    if "--out" in argv:
        # the report is written before the line that names it
        assert "all_hold: True" in (tmp_path / "report.txt").read_text()


@pytest.mark.parametrize(
    "call",
    ["(r := run_corpus([2], 5, rings=[dense, parse_builtin('an:3')], q_max=None)).all_hold"
     " and not r.errors",
     "len(signature_sequence(dense, 2, 5))"],
    ids=["run_corpus", "signature_sequence"],
)
def test_plain_counts_never_walk(call):
    # every plain count takes the plane, the small ones of an:3 and of the
    # dense ring as well as the dense ring at q = 32: none lists the cosets,
    # through any module that bound coset_rows
    result, modules, err = _fresh(
        "import sys\n"
        "import toricfsig.frobenius as fr\n"
        "from toricfsig.fsignature import signature_sequence\n"
        "from toricfsig.rings import parse_builtin, ring_from_dict\n"
        "from toricfsig.verify import run_corpus\n"
        f"dense = ring_from_dict({DENSE!r})\n"
        "walks = []\n"
        "real = fr.coset_rows\n"
        "for name, mod in list(sys.modules.items()):\n"
        "    if name.startswith('toricfsig') and getattr(mod, 'coset_rows', 0) is real:\n"
        "        mod.coset_rows = lambda *a, **k: walks.append(a[2]) or real(*a, **k)\n"
        f"result = [{call}, walks]"
    )
    assert result is not None, err
    done, walks = result
    assert done
    assert walks == []


def test_huge_e_is_refused_before_q_is_formed():
    import time

    for e in (10**6, 10**8):
        start = time.perf_counter()
        code, out, err = _run_in_process(
            ["decompose", "--builtin", "an:3", "-p", "2", "-e", str(e)]
        )
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert f"(2^{e})^2" in err
        assert "Traceback" not in err
    code, _, err = _run_in_process(
        ["decompose", "--builtin", "an:3", "-p", "3", "-e", str(10**6)]
    )
    assert code == 3 and "(3^1000000)^2" in err


@pytest.mark.parametrize(
    "args,message",
    [(["-e", "0"], "-e must be at least 1, got 0"),
     (["-e", "-3"], "-e must be at least 1, got -3"),
     (["--q-max", "-5"], "--q-max must be at least 2, got -5"),
     (["--q-max", "1"], "--q-max must be at least 2, got 1"),
     (["-p", "2,x"], "bad -p '2,x'"),
     (["-p", "3", "--q-max", "2"], "-p 3 is above --q-max 2"),
     (["-p", "2,5", "--q-max", "4"], "-p 5 is above --q-max 4")],
    ids=["e-zero", "e-negative", "q-max-negative", "q-max-one", "p-not-integer",
         "p-above-q-max", "one-p-above-q-max"],
)
def test_verify_empty_witness_range_or_bad_prime_exits_2(args, message):
    code, out, err = _run_in_process(["verify", "--builtin", "an:3", "-p", "2", *args])
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert out == ""


def test_verify_empty_prime_list_exits_2():
    for primes in ("", ","):
        res = run_cli("verify", "--builtin", "an:3", f"-p={primes}")
        assert res.returncode == 2
        assert "no primes" in res.stderr
        assert "verdicts" not in res.stdout


# --detail rows must render exactly as one json.dumps of the whole document
# and one print per coset did before they were written in blocks
def _old_detail_rendering(argv):
    from toricfsig.cli import _class_label, build_parser, _resolve_ring
    from toricfsig.divisors import WeilDivisor
    from toricfsig.frobenius import FrobeniusContext, coset_rows, decompose

    args = build_parser().parse_args(argv)
    spec = _resolve_ring(args)
    coeffs = (tuple(int(x) for x in args.divisor.split(",")) if args.divisor
              else (0,) * spec.num_facets)
    ctx = FrobeniusContext(args.p, args.e)
    dec = decompose(spec, WeilDivisor(coeffs), ctx)
    rows = list(listed_cosets(coset_rows(spec, WeilDivisor(coeffs), ctx), ctx.q))
    items = sorted(dec.summands.items(), key=lambda kv: (kv[0].free, kv[0].torsion))
    if args.format == "json":
        doc = {
            "ring": spec.name, "p": args.p, "e": args.e, "q": ctx.q,
            "divisor": list(coeffs), "rank": dec.rank,
            "summands": [{"free": list(c.free), "torsion": list(c.torsion),
                          "multiplicity": n} for c, n in items],
            "cosets": [{"w": [str(x) for x in w], "divisor": list(d.coeffs)}
                       for w, d in rows],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    lines = [f"ring: {spec.name}  p={args.p} e={args.e} q={ctx.q}  rank={dec.rank}",
             f"base divisor: {list(coeffs)}"]
    lines += [f"  class {_class_label(c)}: {n}" for c, n in items]
    lines += [f"    w=({', '.join(map(str, w))})  divisor={list(d.coeffs)}"
              for w, d in rows]
    return "\n".join(lines) + "\n"


def test_detail_output_matches_whole_document_rendering(tmp_path):
    rings = [("--builtin", t, m) for t, m in
             [("poly:2", 2), ("quadric", 4), ("an:3", 2), ("veronese:5", 2),
              (f"an:{2**62}", 2)]]
    for name, doc in (("klein", KLEIN), ("mixed", MIXED)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        rings.append(("--ring", str(path), len(doc["facets"])))
    for flag, ring, m in rings:
        for p, e in ((2, 1), (3, 1), (2, 3)):
            for divisor in (None, ",".join(str(-1 - 2 * i) for i in range(m)),
                            ",".join(str((-1) ** i * (10**23 + i)) for i in range(m))):
                for fmt in ("json", "text"):
                    argv = ["decompose", flag, ring, "-p", str(p), "-e", str(e),
                            "--detail", "--format", fmt]
                    if divisor:
                        argv.append(f"--divisor={divisor}")
                    code, out, err = _run_in_process(argv)
                    assert code == 0, err
                    assert out == _old_detail_rendering(argv), argv


# Option values for decompose/fsig/verify, valid and not; every example runs
# under a small cap, so a large -e is refused before q^d is formed.
ODD_INT_TEXT = ["", "x", "2.5", "1e3", " 3 ", "0x3", "1_1", "\u0663",
                str(10**30), "9" * 5000]
P_TEXT = st.sampled_from(["2", "3", "5", "7"] * 8 + ["-3", "0", "1", "4", "9", "41"]
                         + ODD_INT_TEXT)
E_TEXT = st.sampled_from(["1", "2", "3", "4"] * 8 + ["-1", "0", "9", str(10**6),
                                                     str(10**8)] + ODD_INT_TEXT)
CAP_TEXT = st.one_of(
    st.integers(-2, 5000).map(str), st.integers(16, 5000).map(str),
    st.sampled_from(["", "x", "1.5", " 64 "]),
)


@st.composite
def option_argvs(draw):
    command = draw(st.sampled_from(["decompose", "fsig", "verify"]))
    ring = draw(st.sampled_from(["an:3", "quadric", "poly:2", "veronese:2"]))
    argv = [command, "--builtin", ring]
    if command == "verify":
        argv.append("-p=" + ",".join(draw(st.lists(P_TEXT, min_size=1, max_size=3))))
    else:
        argv.append("-p=" + draw(P_TEXT))
    argv.append("-e=" + draw(E_TEXT))
    if command != "verify" and draw(st.booleans()):
        m = 4 if ring == "quadric" else 2
        size = draw(st.sampled_from([m] * 6 + [m - 1, m + 1]))
        coeffs = draw(st.lists(
            st.one_of(st.integers(-10, 10), st.integers(-(10**30), 10**30)),
            min_size=size, max_size=size))
        text = ",".join(map(str, coeffs))
        text = draw(st.sampled_from([text] * 6 + ["a,b", "1,,2", ""]))
        argv.append("--divisor=" + text)
    if command == "decompose" and draw(st.booleans()):
        argv.append("--detail")
    if command == "fsig" and draw(st.booleans()):
        argv.append("--exact")
    cap = draw(st.one_of(st.none(), CAP_TEXT))
    env_cap = draw(st.one_of(st.none(), CAP_TEXT))
    if cap is None and not env_cap:
        cap = "64"  # never fall back to the default cap
    if cap is not None:
        argv.append("--cap=" + cap)
    argv += ["--format", draw(st.sampled_from(["text", "csv", "json"]))]
    return argv, env_cap


@settings(max_examples=200, derandomize=True, deadline=None)
@given(option_argvs())
def test_option_values_exit_0_2_or_3_without_traceback(case):
    argv, env_cap = case
    code, _, err = _run_in_process(argv, env_cap)
    assert code in (0, 2, 3), (argv, env_cap, err)
    assert "Traceback" not in err


def test_detail_csv_builds_no_rows(monkeypatch):
    # csv prints only class,multiplicity, so --detail must not ask for rows;
    # every run counts the summands with one decompose call
    import toricfsig.cli as cli_mod

    calls = []
    for name in ("decompose", "coset_rows"):
        real = getattr(cli_mod, name)
        monkeypatch.setattr(
            cli_mod, name,
            lambda *a, _name=name, _real=real, **k: calls.append(_name) or _real(*a, **k),
        )
    argv = ["decompose", "--builtin", "quadric", "-p", "3", "-e", "2",
            "--divisor=5,-7,100000000000000000000000,0", "--format", "csv"]
    plain = _run_in_process(argv)
    detail = _run_in_process(argv + ["--detail"])
    assert detail == plain and plain[0] == 0
    assert calls == ["decompose", "decompose"]
    for fmt in ("json", "text"):
        assert _run_in_process(argv[:-1] + [fmt, "--detail"])[0] == 0
    assert calls == ["decompose"] * 2 + ["decompose", "coset_rows"] * 2


def test_fsig_exact_refuses_a_divisor_of_infinite_order(monkeypatch):
    # the s_e of a class of infinite order do not tend to s: --exact with
    # such a --divisor is one stderr line and exit 2, before any count
    from fractions import Fraction

    import toricfsig.fsignature as fsignature

    calls = []
    real = fsignature.decompose
    monkeypatch.setattr(fsignature, "decompose",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    base = ["fsig", "--builtin", "quadric", "-p", "2", "-e", "6", "--divisor", "1,0,0,0"]
    assert _run_in_process(base + ["--exact"]) == (
        2, "", "error: --exact needs a torsion --divisor; 1,0,0,0 has infinite order "
               "in Cl = Z\n")
    assert calls == []
    code, out, _ = _run_in_process(base)
    assert code == 0 and len(calls) == 6 and "|s_e-s|" not in out
    # a torsion class keeps its terms, and they tend to s = 1/3
    code, out, err = _run_in_process(["fsig", "--builtin", "an:3", "-p", "2", "-e", "6",
                                      "--exact", "--divisor", "1,0", "--format", "json"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["exact"] == "1/3"
    gaps = [abs(Fraction(row["s_e"]) - Fraction(1, 3)) for row in doc["sequence"]]
    assert gaps == sorted(gaps, reverse=True) and gaps[-1] < Fraction(1, 10**4)
