"""Self-test of the benchmark itself; run from the root of a checkout.

    python3 perfbench/selftest.py            # generator tests + count repeats
    python3 perfbench/selftest.py --record   # also rewrite record.json

Generator tests: the same seed gives the same inputs, another seed gives
other inputs, and every generated ring validates with the promised class
group (free rank >= 2, non-cyclic torsion).

Metric names: a run prints exactly the metrics BENCHMARK.json lists.

Count repeats: for each workload and each seed of record, two separate
traced runs must report identical deterministic counts (calls, cache hits,
cosets, subsets, grid points, bytes) and both must be correct, which
includes traced stdout == untraced stdout.  The counts are compared with
record.json, the counts of record, and every moved count is listed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS_OF_RECORD = (1, 2)
COUNT_UNITS = ("count", "bytes")


def generator_tests() -> list[str]:
    import workloads
    from toricfsig import class_group, validate
    from toricfsig.rings import ring_from_dict

    problems = []
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 1, "w"), workloads.build(name, 1, "w")
        if (a.commands, a.files) != (b.commands, b.files):
            problems.append(f"{name}: seed 1 gave different inputs on two builds")
        c = workloads.build(name, 2, "w")
        if (a.commands, a.files) == (c.commands, c.files):
            problems.append(f"{name}: seeds 1 and 2 gave the same inputs")
        if a.cosets != c.cosets:
            problems.append(f"{name}: coset count depends on the seed")
    for seed in (1, 2, 3):
        wl = workloads.build("rings", seed, "w")
        for path, doc in wl.files.items():
            if path.split("/")[-1] in workloads.MALFORMED:
                continue
            spec = ring_from_dict(doc)
            cg = class_group(spec)
            if validate(spec):
                problems.append(f"rings seed {seed}: {doc['name']} does not validate")
            if cg.free_rank < 2 or len(cg.invariant_factors) < 2:
                problems.append(f"rings seed {seed}: {doc['name']} has class group {cg}")
    return problems


def short_run(name: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def metric_names(result: dict, spec: list[dict]) -> list[str]:
    """The metrics a run printed must be exactly those BENCHMARK.json names,
    with the same units."""
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    return [] if got == want else [f"metrics {sorted(set(got) ^ set(want))} or their units "
                                   "differ from BENCHMARK.json"]


def traced_counts(name: str, seed: int, spec: list[dict]) -> tuple[dict, list[str]]:
    result = short_run(name, seed, 1)
    counts = {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in COUNT_UNITS}
    problems = metric_names(result, spec)
    if not result["correct"]:
        problems.append(f"{name} seed {seed}: traced run not correct")
    return counts, problems


def main(argv: list[str]) -> int:
    sys.path[:0] = [str(Path.cwd() / "src"), str(HERE)]
    import workloads

    problems = generator_tests()
    print(f"generator tests: {'ok' if not problems else 'FAIL'}")
    bench = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    problems += metric_names(short_run("rings", 1, 0), bench["end_to_end"])
    record_path = HERE / "record.json"
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    new_record: dict = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS_OF_RECORD:
            first, bad1 = traced_counts(name, seed, bench["per_layer"])
            second, bad2 = traced_counts(name, seed, bench["per_layer"])
            problems += sorted(set(bad1 + bad2))
            if first != second:
                moved = sorted(k for k in first if first[k] != second.get(k))
                problems.append(f"{name} seed {seed}: counts differ between runs: {moved}")
            new_record.setdefault(name, {})[str(seed)] = first
            old = record.get(name, {}).get(str(seed), first)
            for key in sorted(set(old) | set(first)):
                if old.get(key) != first.get(key):
                    print(f"  {name} seed {seed}: {key} moved from the record: "
                          f"{old.get(key)} -> {first.get(key)}")
            print(f"counts {name} seed {seed}: {'repeat' if first == second else 'DIFFER'}")
    if "--record" in argv:
        record_path.write_text(json.dumps(new_record, indent=2, sort_keys=True) + "\n")
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
