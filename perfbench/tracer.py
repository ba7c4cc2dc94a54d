"""Outside-in tracer for lorenzlab: wraps public functions, never edits them.

Every traced function is replaced by a wrapper in *every* lorenzlab module
namespace that binds it (``cli`` imports ``classify`` by name, ``atlas`` binds
``fixed_points``, ``symbolic`` binds ``_bisect_lift`` and ``eval_signed``), so
calls through any of those names are seen.  Methods are patched on their
class.  Spanned functions record (name, start, end, parent) in memory; hot
functions only bump a counter, because a span per call would dwarf the work.
Spans are written out once, by ``dump``, when the traced process ends.

Forked pool workers would not carry their spans home, so a traced run must
keep the whole workload in one process.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (module, attribute, kind, metric prefix); kind is "span" or "count"
TARGETS = [
    ("maps", "build_model", "span", "maps.build_model"),
    ("maps", "fixed_points", "span", "maps.fixed_points"),
    ("maps", "verify_hypotheses", "span", "maps.verify_hypotheses"),
    ("maps", "MapModel.lift", "count", "maps.lift"),
    ("maps", "MapModel.f", "count", "maps.f"),
    ("maps", "eval_signed", "count", "maps.eval_signed"),
    ("maps", "_bisect_lift", "count", "maps._bisect_lift"),
    ("circle", "ArcUnion.add_many", "span", "circle.ArcUnion.add_many"),
    ("atlas", "classify", "span", "atlas.classify"),
    ("atlas", "attractor_span", "span", "atlas.attractor_span"),
    ("atlas", "trapping_interval", "span", "atlas.trapping_interval"),
    ("atlas", "iterate_segments", "span", "atlas.iterate_segments"),
    ("symbolic", "itinerary", "span", "symbolic.itinerary"),
    ("symbolic", "realize", "span", "symbolic.realize"),
    ("symbolic", "kneading_data", "span", "symbolic.kneading_data"),
    ("symbolic", "shoot_matched_model", "span", "symbolic.shoot_matched_model"),
    ("symbolic", "build_conjugacy", "span", "symbolic.build_conjugacy"),
    ("annulus", "verify_cones", "span", "annulus.verify_cones"),
    ("annulus", "attractor_cloud", "span", "annulus.attractor_cloud"),
    ("annulus", "leaf_span_2d", "span", "annulus.leaf_span_2d"),
    ("annulus", "family_degree", "span", "annulus.family_degree"),
    ("cli", "load_config", "span", "cli.load_config"),
    ("cli", "run_sweep", "span", "cli.run_sweep"),
    ("cli", "run_path", "span", "cli.run_path"),
    ("cli", "run_histogram", "span", "cli.run_histogram"),
    ("cli", "_csv", "span", "cli.csv"),
    ("cli", "render_raster", "span", "cli.render_raster"),
    ("cli", "render_pgm", "span", "cli.render_pgm"),
]


def _observe_iterate_segments(counters, cert):
    counters["atlas.iterate_segments.steps"] += cert.iterations_used
    counters["atlas.iterate_segments.peak_arcs"] = max(
        counters["atlas.iterate_segments.peak_arcs"], len(cert.terminal_arcs))


def _observe_itinerary(counters, word):
    counters["symbolic.itinerary.letters"] += len(word.letters)


def _observe_csv(counters, data):
    counters["cli.csv.bytes"] += len(data)


# counters derived from a spanned function's return value
OBSERVERS = {
    "atlas.iterate_segments": _observe_iterate_segments,
    "symbolic.itinerary": _observe_itinerary,
    "cli.csv": _observe_csv,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []   # [name index, start, end, parent index]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {
            "atlas.iterate_segments.steps": 0,
            "atlas.iterate_segments.peak_arcs": 0,
            "symbolic.itinerary.letters": 0,
            "cli.csv.bytes": 0,
        }

    def _span(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counters = self.spans, self.stack, self.counters
        observe = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name_id, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if observe is not None:
                observe(counters, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counters = self.counters
        key = name + ".calls"
        counters[key] = 0

        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target; lorenzlab.cli must already be imported."""
        modules = [m for n, m in sys.modules.items()
                   if n == "lorenzlab" or n.startswith("lorenzlab.")]
        for module, attr, kind, name in TARGETS:
            owner = sys.modules["lorenzlab." + module]
            make = self._span if kind == "span" else self._count
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, make(name, cls.__dict__[method]))
                continue
            original = getattr(owner, attr)
            wrapped = make(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "counters": self.counters}, fh)


def summarize(trace: dict) -> dict[str, float]:
    """Per-name call counts and self times from a dumped trace.

    A span's self time is its duration minus the durations of its direct
    children; nesting is strict, so children never overlap each other.
    """
    names, spans = trace["names"], trace["spans"]
    child_time = [0.0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict[str, float] = {}
    for name in names:
        out[name + ".calls"] = 0
        out[name + ".self_s"] = 0.0
    for (name_id, t0, t1, _), inner in zip(spans, child_time):
        name = names[name_id]
        out[name + ".calls"] += 1
        out[name + ".self_s"] += (t1 - t0) - inner
    out.update(trace["counters"])

    # build_model calls made on behalf of the shooting search, per match
    shoot = names.index("symbolic.shoot_matched_model")
    build = names.index("maps.build_model")
    matches = sum(1 for s in spans if s[0] == shoot)
    builds = 0
    for name_id, _, _, parent in spans:
        if name_id != build:
            continue
        while parent >= 0 and spans[parent][0] != shoot:
            parent = spans[parent][3]
        builds += parent >= 0
    out["symbolic.shoot_matched_model.builds_per_match"] = (
        builds / matches if matches else 0.0)
    return out
