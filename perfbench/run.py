"""toricfsig benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus|twisted|rings --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  A workload is a closed loop with one
client: its commands run one after another, each in a fresh
``python -m toricfsig`` child with single-threaded BLAS, and a pass is one
sweep over them.  Passes repeat until ``--seconds`` is spent; the run
reports medians over passes.  Set-up is timed on its own, several times.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run (see tracer.py) interleaved with untraced passes,
whose difference is the tracing overhead; it prints the end-to-end figures
of those untraced passes as well.  Every pass's outputs are checked
(exit code, no traceback, stdout digest) and the first pass's outputs go
through the independent checks in checks.py.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Outcome:
    rc: int
    wall: float
    cpu: float
    maxrss_mb: float
    digest: str = ""
    size: int = 0
    traceback: bool = False
    stdout: bytes | None = None  # kept for the first pass only


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k != "TORICFSIG_CAP" and not k.startswith("PYTHON")}
    env.update({var: "1" for var in THREAD_VARS})
    env.update(PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    return env


def run_child(argv, env, root: Path, out: Path, err: Path) -> Outcome:
    """Run one child to completion; its own rusage comes from wait4."""
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe,
                                env=env, cwd=root)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024)


def read_outputs(res: Outcome, out: Path, err: Path, keep: bool) -> None:
    data = out.read_bytes()
    res.digest = hashlib.sha256(data).hexdigest()
    res.size = len(data)
    res.traceback = b"Traceback (most recent call last)" in err.read_bytes()
    res.stdout = data if keep else None


@dataclass
class Pass:
    wall: float
    results: list[Outcome]
    per_command: list[dict] | None = None  # span aggregates, traced passes only
    layers: dict | None = None  # their sum over the pass

    @property
    def cpu(self) -> float:
        return sum(r.cpu for r in self.results)

    @property
    def peak_rss_mb(self) -> float:
        return max(r.maxrss_mb for r in self.results)


def run_pass(wl, env, root: Path, work: Path, traced: bool, keep: bool) -> Pass:
    files = [(work / f"out{i}", work / f"err{i}", work / f"spans{i}.json")
             for i in range(len(wl.commands))]
    results = []
    start = time.perf_counter()
    for cmd, (out, err, spans) in zip(wl.commands, files):
        if traced:
            spans.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), "--", *cmd.argv]
        else:
            argv = [sys.executable, "-m", "toricfsig", *cmd.argv]
        results.append(run_child(argv, env, root, out, err))
    wall = time.perf_counter() - start
    for res, (out, err, _) in zip(results, files):
        read_outputs(res, out, err, keep)
    if not traced:
        return Pass(wall, results)
    per_command = [tracer.aggregate(json.loads(spans.read_text())) if spans.exists() else {}
                   for _, _, spans in files]
    return Pass(wall, results, per_command, tracer.merge(per_command))


def time_setup(wl, env, root: Path, work: Path) -> float:
    """Wall seconds of one set-up child."""
    argv = [sys.executable, str(HERE / "setup_child.py"), *wl.setup_rings]
    out, err = work / "setup.out", work / "setup.err"
    res = run_child(argv, env, root, out, err)
    if res.rc != 0:
        raise RuntimeError(f"set-up child failed: {err.read_text()[-2000:]}")
    return res.wall


def judge(wl, passes: list[Pass], golden: dict) -> list[list[list[str]]]:
    """Problems of each command in each pass.  The independent checks run on
    the first pass; later passes must reproduce its stdout byte for byte."""
    from checks import run_check

    first = passes[0].results
    checked = [run_check(cmd, res.stdout) if res.rc == cmd.expect_rc else []
               for cmd, res in zip(wl.commands, first)]
    problems = [[] for _ in wl.commands]
    for p in passes:
        for i, (cmd, res) in enumerate(zip(wl.commands, p.results)):
            bad = []
            if res.rc != cmd.expect_rc:
                bad.append(f"exit {res.rc}, expected {cmd.expect_rc}")
            if res.traceback:
                bad.append("traceback on stderr")
            if cmd.golden and res.digest != golden.get(cmd.golden):
                bad.append(f"stdout digest {res.digest[:12]} is not the golden digest")
            if res.digest != first[i].digest and not cmd.probe:
                bad.append("stdout differs between passes")
            bad += checked[i]
            problems[i].append(bad)
    return problems


def environment(root: Path, args) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((root / "src" / "toricfsig").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: "1" for var in THREAD_VARS},
        "git_commit": git_commit(root),
        "source_sha256": src.hexdigest(),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def measure(wl, env, root, work, seconds: float, traced: bool):
    """Passes until their time adds up to about ``seconds``: untraced only, or
    alternating untraced and traced ones (at least one of each) for the
    traced run.  One set-up child runs before each pass, so set-up is
    sampled across the run like the passes, topped up to SETUP_REPEATS."""
    time_setup(wl, env, root, work)  # warm-up: fills __pycache__, untimed
    passes: list[Pass] = []
    setup: list[float] = []
    while True:
        setup.append(time_setup(wl, env, root, work))
        kind = traced and len(passes) % 2 == 1
        passes.append(run_pass(wl, env, root, work, kind, keep=not passes))
        next_kind = traced and len(passes) % 2 == 1
        same = [p.wall for p in passes if (p.layers is not None) == next_kind]
        nxt = statistics.median(same) if same else passes[-1].wall
        # start another pass only if at least half of it fits, so that the
        # measured time averages ``seconds`` instead of falling short of it
        if (not traced or len(passes) >= 2) and sum(p.wall for p in passes) + nxt / 2 > seconds:
            break
    while len(setup) < SETUP_REPEATS:
        setup.append(time_setup(wl, env, root, work))
    return passes, setup


def end_to_end(wl, passes: list[Pass], setup: list[float], ok_rate: float) -> dict:
    wall = statistics.median(p.wall for p in passes)
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "cpu_s": {"value": statistics.median(p.cpu for p in passes), "unit": "s"},
        "cosets_per_s": {"value": wl.cosets / wall, "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(p.peak_rss_mb for p in passes), "unit": "MB"},
        "ok_rate": {"value": ok_rate, "unit": "ratio"},
    }


def per_layer(wl, passes: list[Pass], oracle: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced passes, plus the determinism checks:
    counts repeat across traced passes, traced stdout equals untraced."""
    plain = [p for p in passes if p.layers is None]
    traced = [p for p in passes if p.layers is not None]
    for p in traced:
        p.layers.update(oracle)
    problems = []
    counts = [tracer.counts_of(p.layers) for p in traced]
    if any(c != counts[0] for c in counts):
        problems.append("deterministic counts differ between traced passes")
    for p in traced:
        if [r.digest for r in p.results] != [r.digest for r in plain[0].results]:
            problems.append("traced stdout differs from untraced stdout")
    metrics = tracer.layer_metrics([p.layers for p in traced])
    traced_cosets = sum(agg.get("frobenius.decompose", {}).get("cosets", 0)
                        for cmd, agg in zip(wl.commands, traced[0].per_command) if not cmd.probe)
    if traced_cosets != wl.cosets:
        problems.append("traced decompose cosets differ from the count of the inputs")
    main_s = statistics.median(p.layers.get("cli.main", {}).get("s", 0.0) for p in traced)
    traced_wall = statistics.median(p.wall for p in traced)
    first = traced[0].layers
    self_sum = sum(row["self_s"] for name, row in first.items() if name not in oracle)
    print(f"accounting: self times of all layers, cli.main.self_s included, sum to "
          f"{self_sum:.4f} s of cli.main.s {first['cli.main']['s']:.4f} s; traced pass wall "
          f"{traced[0].wall:.4f} s = cli.main.s + startup {traced[0].wall - first['cli.main']['s']:.4f} s")
    metrics["cli.stdout_bytes"] = {"value": sum(r.size for r in traced[0].results),
                                   "unit": "bytes"}
    metrics["cli.startup_s"] = {"value": traced_wall - main_s, "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": traced_wall - statistics.median(p.wall for p in plain), "unit": "s"}
    return metrics, problems


def run(args, root: Path, work: Path) -> dict:
    import workloads

    wl = workloads.build(args.workload, args.seed, work.relative_to(root).as_posix())
    for path, doc in wl.files.items():
        (root / path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    golden = json.loads((HERE / "golden.json").read_text())
    env = child_env(root)
    print(f"environment {json.dumps(environment(root, args), sort_keys=True)}")

    passes, setup = measure(wl, env, root, work, args.seconds, bool(args.trace))
    if args.trace:
        # the box oracle runs only inside the checks, in this process
        oracle_tracer = tracer.Tracer()
        oracle_tracer.install(only=("frobenius.box_count_oracle",))
    problems = judge(wl, passes, golden)
    extra = []
    if args.trace:
        oracle = tracer.aggregate(oracle_tracer.spans)
        metrics, extra = per_layer(wl, passes, {
            "frobenius.box_count_oracle": oracle.get("frobenius.box_count_oracle", {})})

    bad = [i for i, per_pass in enumerate(problems) for b in per_pass if b]
    runs = len(passes) * len(wl.commands)
    ok_rate = (runs - len(bad)) / runs
    failed = sum(1 for i in bad if not wl.commands[i].probe)
    attempted = sum(1 for c in wl.commands if not c.probe) * len(passes)
    # with --trace 1 the end-to-end figures of the untraced passes are
    # printed too, but only the per-layer metrics go into the result line
    e2e = end_to_end(wl, [p for p in passes if p.layers is None], setup, ok_rate)
    if not args.trace:
        metrics = e2e

    for i, cmd in enumerate(wl.commands):
        seen = sorted({b for per_pass in problems[i] for b in per_pass})
        status = "ok" if not seen else ("PROBE " if cmd.probe else "FAIL ") + "; ".join(seen)
        print(f"command {i} {' '.join(cmd.argv)} -> {status}")
    print(f"passes {len(passes)} walls {[round(p.wall, 4) for p in passes]} "
          f"setup {[round(s, 4) for s in setup]}")
    print(f"fail_rate {len(bad) / runs:.4f} ({len(bad)} of {runs} commands, "
          f"{len(bad) - failed} of them malformed-input probes)")
    for problem in extra:
        print(f"determinism FAIL {problem}")
    for name, m in (e2e | metrics).items():
        print(f"metric {name} = {m['value']} {m['unit']}")
    return {
        "correct": failed == 0 and not extra,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "toricfsig" / "__init__.py").is_file():
        print("perfbench: no src/toricfsig here; run from the root of a toricfsig "
              "checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    scratch = root / ".perfbench_tmp"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
