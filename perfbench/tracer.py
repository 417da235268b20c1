"""Span tracer for the benchmark's traced run, kept outside the package.

``Tracer.install`` replaces the public functions of each layer with timing
wrappers, in every toricfsig module that bound them (``from .x import y``
copies the name, so ``verify.decompose`` and ``cli.decompose`` are wrapped
as well as ``frobenius.decompose``).  The ``lru_cache`` functions are
wrapped outside the cache and count hits from ``cache_info()`` deltas.
Spans (name, start, end, parent, counters) stay in memory and are written
once, at the end.

Run as a script it is the traced child of one command:

    python3 perfbench/tracer.py SPANS.json -- <toricfsig argv...>

which calls ``toricfsig.cli.main(argv)`` in-process with every layer
wrapped and behaves like ``python -m toricfsig <argv...>`` otherwise.
"""

from __future__ import annotations

import importlib
import json
import math
import statistics
import sys
import time

# Layer (module) -> public functions wrapped in it.
LAYERS = {
    "linalg": ("smith_normal_form", "hermite_normal_form"),
    "rings": ("validate", "unit_region_vertices"),
    "geometry": ("enumerate_vertices", "polytope_volume"),
    "divisors": ("class_group", "torsion_elements"),
    "frobenius": ("decompose", "simultaneous_torsion_count", "box_count_oracle"),
    "fsignature": ("exact_signature_volume", "signature_sequence"),
    "verify": ("verify_ring", "run_corpus", "report_to_json"),
    "cli": ("main",),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, counters]
        self._stack: list[int] = []
        self._orig: dict = {}

    def install(self, only: tuple[str, ...] | None = None) -> None:
        """Wrap every function in LAYERS (or just the names in ``only``)."""
        importlib.import_module("toricfsig.cli")
        modules = [m for n, m in sys.modules.items()
                   if n == "toricfsig" or n.startswith("toricfsig.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"toricfsig.{layer}"]
            for fname in names:
                name = f"{layer}.{fname}"
                if only is not None and name not in only:
                    continue
                orig = getattr(home, fname)
                self._orig[name] = orig
                wrapper = self._wrap(name, orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)

    def _wrap(self, name, orig):
        counter = _COUNTERS.get(name)
        cached = hasattr(orig, "cache_info")
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, 0, 0, parent, {}]
            spans.append(span)
            stack.append(index)
            hits = orig.cache_info().hits if cached else 0
            result = None
            span[1] = time.perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
                if cached:
                    span[4]["cache_hits"] = orig.cache_info().hits - hits
                if counter is not None and result is not None:
                    span[4].update(counter(self, args, kwargs, result))

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _count_enumerate_vertices(tracer, args, kwargs, result):
    halfspaces = _arg(args, kwargs, 0, "halfspaces")
    dim = _arg(args, kwargs, 1, "dim")
    return {"subsets": math.comb(len(halfspaces), dim), "vertices": len(result)}


def _count_decompose(tracer, args, kwargs, result):
    spec, ctx = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 2, "ctx")
    trivial = all(not c.free and not c.torsion for c in result.summands)
    return {"cosets": ctx.q**spec.dim, "trivial_calls": int(trivial)}


def _count_box_count_oracle(tracer, args, kwargs, result):
    # the bounding box the oracle enumerates, from the cached vertices;
    # the unwrapped cache is called, so this records no span
    from toricfsig import rings

    spec, ctx = _arg(args, kwargs, 0, "spec"), _arg(args, kwargs, 1, "ctx")
    vertices = tracer._orig.get("rings.unit_region_vertices", rings.unit_region_vertices)(spec)
    grid = 1
    for k in range(spec.dim):
        vals = [v[k] * ctx.q for v in vertices]
        grid *= max(math.floor(max(vals)) - math.ceil(min(vals)) + 1, 0)
    return {"grid_points": grid, "hits": result}


def _count_report_to_json(tracer, args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


_COUNTERS = {
    "geometry.enumerate_vertices": _count_enumerate_vertices,
    "frobenius.decompose": _count_decompose,
    "frobenius.box_count_oracle": _count_box_count_oracle,
    "verify.report_to_json": _count_report_to_json,
}


def aggregate(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, summed counters.

    Self time is a span's duration minus the time covered by its children;
    spans nest strictly (one thread), so children never overlap.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, _, counters) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += (end - start) / 1e9
        row["self_s"] += (end - start - child_ns[i]) / 1e9
        for key, val in counters.items():
            row[key] = row.get(key, 0) + val
    return out


def merge(rows: list[dict[str, dict]]) -> dict[str, dict]:
    """Sum per-command aggregates into one per-pass aggregate."""
    out: dict[str, dict] = {}
    for agg in rows:
        for name, row in agg.items():
            acc = out.setdefault(name, {})
            for key, val in row.items():
                acc[key] = acc.get(key, 0) + val
    return out


# Per-layer metrics reported by the traced run: name -> (span, field, unit).
# Fields "s" and "self_s" are times; everything else is a deterministic count.
LAYER_METRICS = {
    "linalg.smith_normal_form.calls": ("linalg.smith_normal_form", "calls", "count"),
    "linalg.smith_normal_form.self_s": ("linalg.smith_normal_form", "self_s", "s"),
    "linalg.hermite_normal_form.calls": ("linalg.hermite_normal_form", "calls", "count"),
    "linalg.hermite_normal_form.self_s": ("linalg.hermite_normal_form", "self_s", "s"),
    "rings.validate.calls": ("rings.validate", "calls", "count"),
    "rings.validate.self_s": ("rings.validate", "self_s", "s"),
    "rings.unit_region_vertices.calls": ("rings.unit_region_vertices", "calls", "count"),
    "rings.unit_region_vertices.cache_hits": ("rings.unit_region_vertices", "cache_hits", "count"),
    "geometry.enumerate_vertices.calls": ("geometry.enumerate_vertices", "calls", "count"),
    "geometry.enumerate_vertices.self_s": ("geometry.enumerate_vertices", "self_s", "s"),
    "geometry.enumerate_vertices.subsets": ("geometry.enumerate_vertices", "subsets", "count"),
    "geometry.polytope_volume.calls": ("geometry.polytope_volume", "calls", "count"),
    "geometry.polytope_volume.self_s": ("geometry.polytope_volume", "self_s", "s"),
    "divisors.class_group.calls": ("divisors.class_group", "calls", "count"),
    "divisors.class_group.cache_hits": ("divisors.class_group", "cache_hits", "count"),
    "divisors.class_group.self_s": ("divisors.class_group", "self_s", "s"),
    "divisors.torsion_elements.calls": ("divisors.torsion_elements", "calls", "count"),
    "divisors.torsion_elements.self_s": ("divisors.torsion_elements", "self_s", "s"),
    "frobenius.decompose.calls": ("frobenius.decompose", "calls", "count"),
    "frobenius.decompose.trivial_calls": ("frobenius.decompose", "trivial_calls", "count"),
    "frobenius.decompose.self_s": ("frobenius.decompose", "self_s", "s"),
    "frobenius.decompose.cosets": ("frobenius.decompose", "cosets", "count"),
    "frobenius.simultaneous_torsion_count.self_s":
        ("frobenius.simultaneous_torsion_count", "self_s", "s"),
    "frobenius.box_count_oracle.calls": ("frobenius.box_count_oracle", "calls", "count"),
    "frobenius.box_count_oracle.self_s": ("frobenius.box_count_oracle", "self_s", "s"),
    "frobenius.box_count_oracle.grid_points":
        ("frobenius.box_count_oracle", "grid_points", "count"),
    "fsignature.exact_signature_volume.calls":
        ("fsignature.exact_signature_volume", "calls", "count"),
    "fsignature.exact_signature_volume.self_s":
        ("fsignature.exact_signature_volume", "self_s", "s"),
    "fsignature.signature_sequence.self_s": ("fsignature.signature_sequence", "self_s", "s"),
    "verify.verify_ring.self_s": ("verify.verify_ring", "self_s", "s"),
    "verify.run_corpus.self_s": ("verify.run_corpus", "self_s", "s"),
    "verify.report_to_json.s": ("verify.report_to_json", "s", "s"),
    "verify.report_to_json.bytes": ("verify.report_to_json", "bytes", "bytes"),
    "cli.main.s": ("cli.main", "s", "s"),
    "cli.main.self_s": ("cli.main", "self_s", "s"),
}

# Ratios of two fields of one span: name -> (span, numerator, denominator, unit).
LAYER_RATIOS = {
    "geometry.enumerate_vertices.hit_ratio":
        ("geometry.enumerate_vertices", "vertices", "subsets", "ratio"),
    "frobenius.decompose.cosets_per_s": ("frobenius.decompose", "cosets", "self_s", "1/s"),
    "frobenius.box_count_oracle.hit_ratio":
        ("frobenius.box_count_oracle", "hits", "grid_points", "ratio"),
    "frobenius.box_count_oracle.pts_per_s":
        ("frobenius.box_count_oracle", "grid_points", "self_s", "1/s"),
}

COUNT_FIELDS = ("calls", "cache_hits", "trivial_calls", "cosets", "subsets",
                "vertices", "grid_points", "hits", "bytes")


def counts_of(agg: dict[str, dict]) -> dict[str, int]:
    """The deterministic counts of an aggregate, flattened to name -> int."""
    return {f"{name}.{key}": val for name, row in sorted(agg.items())
            for key, val in sorted(row.items()) if key in COUNT_FIELDS}


def layer_metrics(passes: list[dict[str, dict]]) -> dict[str, dict]:
    """Per-layer metrics from several traced passes: counts from the first
    (they repeat exactly), times as medians over the passes."""

    def field(span, key):
        vals = [p.get(span, {}).get(key, 0) for p in passes]
        return statistics.median(vals) if key in ("s", "self_s") else vals[0]

    out = {}
    for name, (span, key, unit) in LAYER_METRICS.items():
        out[name] = {"value": field(span, key), "unit": unit}
    for name, (span, num, den, unit) in LAYER_RATIOS.items():
        d = field(span, den)
        out[name] = {"value": field(span, num) / d if d else 0.0, "unit": unit}
    return out


def _main(argv: list[str]) -> int:
    spans_path, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <toricfsig argv...>")
    tracer = Tracer()
    tracer.install()
    from toricfsig import cli

    try:
        return cli.main(cli_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))
