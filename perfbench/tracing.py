"""In-memory spans around modcover's public functions, and the per-layer
metrics derived from them.

Spans are recorded by replacing functions in the module namespaces they are
called through (``linalg.standard_form`` is looked up by ``LinearCode`` at call
time, ``covering.coset_leader_table`` by ``covering_radius_syndrome``, and so
on), so nothing in the package is edited.  Each span keeps its name, start,
end, parent span and the id of the request that caused it.
"""

from __future__ import annotations

import functools
import json
import resource
import time
from collections import defaultdict
from dataclasses import dataclass, field


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Span:
    name: str
    parent: int | None
    query: int | None
    start: float = 0.0
    end: float = 0.0
    cpu: float | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.query: int | None = None
        self.paused = False
        self.overhead_s = 0.0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call; ``count(result, args, kwargs)``
        returns counters to attach.  CPU is sampled on covering spans that are
        not nested in another covering span."""
        tracer = self
        covering = name.startswith("covering.")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            entered = time.perf_counter()
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, parent, tracer.query)
            outer = covering and (parent is None or not tracer.spans[parent].name.startswith("covering."))
            cpu0 = cpu_seconds() if outer else 0.0
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if outer:
                span.cpu = cpu_seconds() - cpu0
            if count is not None:
                span.counts = count(result, args, kwargs)
            tracer.overhead_s += (span.start - entered) + (time.perf_counter() - span.end)
            return result

        return traced

    def install(self, modules: dict) -> None:
        for module_name, attr, span_name, count in TARGETS:
            module = modules[module_name]
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original, count))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, sp in enumerate(self.spans):
                row = {"id": i, "name": sp.name, "start": sp.start, "end": sp.end,
                       "parent": sp.parent, "query": sp.query}
                if sp.cpu is not None:
                    row["cpu"] = sp.cpu
                if sp.counts:
                    row["counts"] = sp.counts
                fh.write(json.dumps(row) + "\n")


# --- span counters ---------------------------------------------------------

def _codewords(result, args, kwargs):
    return {"codewords": len(result.words)}


def _table(result, args, kwargs):
    workers = max(1, min(int(kwargs.get("threads", 1)), result.visited))
    return {"vectors": result.visited, "cosets": len(result.weights),
            "table_bytes": len(result.weights) * result.weights.itemsize * workers}


def _syndrome(result, args, kwargs):
    code = args[0]
    out = {"ambient": 1 << (code.ring.s * code.n)}
    if result.witness is not None:
        idx = 0
        for c in result.witness:
            idx = (idx << code.ring.s) | int(c)
        out["deep_hole_vectors"] = idx + 1
    return out


def _bfs(result, args, kwargs):
    code = args[0]
    cosets = 1 << (code.ring.s * code.n - code.two_dimension)
    return {"vectors": result.visited, "cosets": cosets if result.exact else 0}


def _direct(result, args, kwargs):
    words, ring = args[0], args[1]
    return {"evals": (1 << (ring.s * len(words[0]))) * len(words)}


def _delsarte(result, args, kwargs):
    return {"codewords": 1 << args[0].dual().two_dimension}


def _auto(result, args, kwargs):
    method = args[2] if len(args) > 2 else kwargs.get("method", "auto")
    return {"dispatch": result.method} if method == "auto" else {}


_FAMILIES = ("repetition_alpha", "repetition_beta", "block_repetition", "simplex_alpha",
             "simplex_beta", "macdonald_alpha", "macdonald_beta")

# (module, attribute, span name, counter)
TARGETS = [
    ("linalg", "standard_form", "linalg.standard_form", None),
    ("linalg", "dual_code", "linalg.dual", None),
    ("linalg", "parse_generator_file", "linalg.parse", None),
    ("linalg", "enumerate_codewords", "linalg.enumerate", _codewords),
    ("families", "enumerate_codewords", "linalg.enumerate", _codewords),
    ("covering", "enumerate_codewords", "linalg.enumerate", _codewords),
    *(("families", name, "families.build", None) for name in _FAMILIES),
    ("covering", "covering_radius", "covering.auto", _auto),
    ("covering", "covering_radius_syndrome", "covering.syndrome", _syndrome),
    ("covering", "coset_leader_table", "covering.table", _table),
    ("covering", "covering_radius_bfs", "covering.bfs", _bfs),
    ("covering", "covering_radius_of_set", "covering.direct", _direct),
    ("covering", "bound_report", "covering.bounds", None),
    ("covering", "delsarte_bound", "covering.delsarte", _delsarte),
]


# --- per-layer metrics -----------------------------------------------------

# name -> unit, in the order printed
LAYER_METRICS = {
    "covering.table_s": "s",
    "covering.table.vectors": "count",
    "covering.table.cosets": "count",
    "covering.table.vectors_per_s": "1/s",
    "covering.table.table_bytes": "B",
    "covering.deep_hole_s": "s",
    "covering.deep_hole.vectors": "count",
    "covering.deep_hole.scan_frac": "ratio",
    "covering.cpu_per_wall": "ratio",
    "covering.bfs_s": "s",
    "covering.bfs.vectors": "count",
    "covering.bfs.vectors_per_s": "1/s",
    "covering.bfs.new_coset_ratio": "ratio",
    "covering.direct_s": "s",
    "covering.direct.evals": "count",
    "covering.direct.evals_per_s": "1/s",
    "covering.bounds_s": "s",
    "covering.delsarte_s": "s",
    "covering.delsarte.codewords": "count",
    "covering.auto.syndrome": "count",
    "covering.auto.bfs": "count",
    "covering.auto.direct": "count",
    "covering.auto.bound_only": "count",
    "linalg.standard_form_s": "s",
    "linalg.standard_form.calls": "count",
    "linalg.dual_s": "s",
    "linalg.dual.calls": "count",
    "linalg.enumerate_s": "s",
    "linalg.enumerate.codewords": "count",
    "linalg.parse_s": "s",
    "linalg.parse.calls": "count",
    "families.build_s": "s",
    "families.build.calls": "count",
    "setup.linalg.standard_form_s": "s",
    "setup.linalg.standard_form.calls": "count",
    "setup.linalg.dual_s": "s",
    "setup.linalg.dual.calls": "count",
    "setup.linalg.enumerate_s": "s",
    "setup.linalg.enumerate.codewords": "count",
    "setup.families.build_s": "s",
    "setup.families.build.calls": "count",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "query.repeat_share": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

# layers reported for both the query phase and set-up: (span name, counter or calls)
_SHARED_LAYERS = (("linalg.standard_form", None), ("linalg.dual", None), ("linalg.enumerate", "codewords"),
                  ("linalg.parse", None), ("families.build", None))
_DISPATCH = {"syndrome_table": "syndrome", "weight_bfs": "bfs", "direct": "direct", "bound_only": "bound_only"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], batches: int, setups: int) -> dict[str, float]:
    """Per-layer metrics: query-phase spans per batch, set-up spans per set-up.

    Times are inclusive span durations (no span nests in one of its own name);
    ``covering.deep_hole_s`` is the self time of covering_radius_syndrome
    (its span minus its children, the table pass among them).
    """
    child_time = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            child_time[sp.parent] += sp.end - sp.start
    q_time, q_calls, q_counts = defaultdict(float), defaultdict(int), defaultdict(float)
    s_time, s_calls, s_counts = defaultdict(float), defaultdict(int), defaultdict(float)
    deep_self = cpu = cpu_wall = 0.0
    table_bytes = 0
    for i, sp in enumerate(spans):
        time_, calls, counts = (s_time, s_calls, s_counts) if sp.query is None else (q_time, q_calls, q_counts)
        dur = sp.end - sp.start
        time_[sp.name] += dur
        calls[sp.name] += 1
        for key, value in sp.counts.items():
            if key == "dispatch":
                # one decision per request: bound_report's own covering_radius
                # calls (the Mattson split) are not requests
                if sp.parent is None:
                    counts["covering.auto." + _DISPATCH.get(value, value)] += 1
            elif key == "table_bytes":
                table_bytes = max(table_bytes, value)
            else:
                counts[f"{sp.name}.{key}"] += value
        if sp.query is not None:
            if sp.name == "covering.syndrome":
                deep_self += dur - child_time[i]
            if sp.cpu is not None:
                cpu += sp.cpu
                cpu_wall += dur
    b, s = max(batches, 1), max(setups, 1)
    out = {
        "covering.table_s": q_time["covering.table"] / b,
        "covering.table.vectors": q_counts["covering.table.vectors"] / b,
        "covering.table.cosets": q_counts["covering.table.cosets"] / b,
        "covering.table.vectors_per_s": _ratio(q_counts["covering.table.vectors"], q_time["covering.table"]),
        "covering.table.table_bytes": float(table_bytes),
        "covering.deep_hole_s": deep_self / b,
        "covering.deep_hole.vectors": q_counts["covering.syndrome.deep_hole_vectors"] / b,
        "covering.deep_hole.scan_frac": _ratio(q_counts["covering.syndrome.deep_hole_vectors"],
                                               q_counts["covering.syndrome.ambient"]),
        "covering.cpu_per_wall": _ratio(cpu, cpu_wall),
        "covering.bfs_s": q_time["covering.bfs"] / b,
        "covering.bfs.vectors": q_counts["covering.bfs.vectors"] / b,
        "covering.bfs.vectors_per_s": _ratio(q_counts["covering.bfs.vectors"], q_time["covering.bfs"]),
        "covering.bfs.new_coset_ratio": _ratio(q_counts["covering.bfs.cosets"], q_counts["covering.bfs.vectors"]),
        "covering.direct_s": q_time["covering.direct"] / b,
        "covering.direct.evals": q_counts["covering.direct.evals"] / b,
        "covering.direct.evals_per_s": _ratio(q_counts["covering.direct.evals"], q_time["covering.direct"]),
        "covering.bounds_s": q_time["covering.bounds"] / b,
        "covering.delsarte_s": q_time["covering.delsarte"] / b,
        "covering.delsarte.codewords": q_counts["covering.delsarte.codewords"] / b,
    }
    for kind in ("syndrome", "bfs", "direct", "bound_only"):
        out[f"covering.auto.{kind}"] = q_counts[f"covering.auto.{kind}"] / b
    for prefix, time_, calls, counts, per in (("", q_time, q_calls, q_counts, b),
                                              ("setup.", s_time, s_calls, s_counts, s)):
        for layer, count_key in _SHARED_LAYERS:
            name = prefix + layer
            if name + "_s" not in LAYER_METRICS:
                continue
            out[name + "_s"] = time_[layer] / per
            if count_key:
                out[f"{name}.{count_key}"] = counts[f"{layer}.{count_key}"] / per
            else:
                out[f"{name}.calls"] = calls[layer] / per
    return out

