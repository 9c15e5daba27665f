"""Spans around the library's public entry points, from outside the library.

``Tracer.installed()`` rebinds module attributes (``rtp.solver.area_graph``
and the like) to timing wrappers and restores them on exit, so the library
itself carries no tracing code. Each span is kept in memory as
(name, start, end, parent index, operation id); ``layer_report`` turns
them into per-module self times and counts afterwards.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

import rtp
import rtp.path_finder
import rtp.solver
import rtp.temporal_graph

_FINDER_FIELDS = ("sieve_trials", "sieve_ops", "screened",
                  "extraction_decisions", "extraction_ops")


def _finder_snapshot(kwargs):
    stats = kwargs.get("stats")
    return None if stats is None else [getattr(stats, f) for f in _FINDER_FIELDS]


def _count_area(counts, args, kwargs, result, before):
    counts["areas.edges_scanned"] += len(args[0].time_edges)
    counts["areas.edges_kept"] += len(result.time_edges)


def _count_find(counts, args, kwargs, result, before):
    counts["path_finder.hits"] += result is not None
    if before is not None:  # FinderStats deltas across this one call
        stats = kwargs["stats"]
        for field, old in zip(_FINDER_FIELDS, before):
            counts["path_finder." + field] += getattr(stats, field) - old


def _count_distances(counts, args, kwargs, result, before):
    counts["distances.work"] += result.work
    counts["distances.appearances"] += len(result.entries)


_COUNTERS = {"areas.area_graph": _count_area, "path_finder.find": _count_find,
             "distances.compute": _count_distances}

# (span name, namespaces whose attribute is rebound, attribute)
_ENTRY_POINTS = (
    ("temporal_graph.parse", (rtp,), "parse_temporal_graph"),
    ("temporal_graph.validate", (rtp.solver,), "validate_restless_path"),
    ("distances.compute", (rtp, rtp.solver), "compute_distances"),
    ("distances.walk", (rtp,), "restless_walk_distance"),
    ("areas.area_graph", (rtp.solver,), "area_graph"),
    ("path_finder.find", (rtp.solver,), "find_exact_restless_path"),
    ("path_finder.brute", (rtp.path_finder,), "find_exact_restless_path_brute"),
    ("path_finder.sieve", (rtp.path_finder,), "find_exact_restless_path_sieve"),
    ("solver.solve", (rtp, rtp.solver), "solve"),
    ("solver.solve_windowed", (rtp,), "solve_windowed"),
    ("solver.reconstruct", (rtp.solver,), "reconstruct"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = _COUNTERS.get(name)
        snapshot = name == "path_finder.find"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = _finder_snapshot(kwargs) if snapshot else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if count is not None:
                count(counts, args, kwargs, result, before)
            return result
        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for name, owners, attr in _ENTRY_POINTS:
                wrapped = self._wrap(name, getattr(owners[0], attr))
                for owner in owners:
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, wrapped)
            graph_cls = rtp.temporal_graph.TemporalGraph
            build = graph_cls.__dict__["from_time_edges"]
            saved.append((graph_cls, "from_time_edges", build))
            graph_cls.from_time_edges = classmethod(
                self._wrap("temporal_graph.build", build.__func__))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def layer_report(tracer: Tracer, op_seconds: float, ops: int) -> dict:
    """Per-module metrics of one traced pass, as name -> (value, unit).

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap. A
    layer's share is its spans' self time over the operations' time.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _op in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter = Counter()
    self_s: Counter = Counter()
    windowed_solves = 0
    for i, (name, start, end, parent, _op) in enumerate(spans):
        calls[name] += 1
        self_s[name] += end - start - child_time[i]
        if name == "solver.solve" and parent >= 0 and spans[parent][0] == "solver.solve_windowed":
            windowed_solves += 1
    c = tracer.counts

    def ratio(num, den):
        return (num / den if den else 0.0), "ratio"

    m = {
        "areas.calls": (calls["areas.area_graph"], "count"),
        "areas.self_s": (self_s["areas.area_graph"], "s"),
        "areas.edges_scanned": (c["areas.edges_scanned"], "count"),
        "areas.edges_kept": (c["areas.edges_kept"], "count"),
        "areas.kept_ratio": ratio(c["areas.edges_kept"], c["areas.edges_scanned"]),
        "areas.unbuilt_calls": (calls["areas.area_graph"] - c["solver.areas_built"], "count"),
        "path_finder.calls": (calls["path_finder.find"], "count"),
        "path_finder.hits": (c["path_finder.hits"], "count"),
        "path_finder.hit_ratio": ratio(c["path_finder.hits"], calls["path_finder.find"]),
        "path_finder.brute_calls": (calls["path_finder.brute"], "count"),
        "path_finder.brute_s": (self_s["path_finder.brute"], "s"),
        "path_finder.sieve_calls": (calls["path_finder.sieve"], "count"),
        "path_finder.sieve_s": (self_s["path_finder.sieve"], "s"),
        **{"path_finder." + f: (c["path_finder." + f], "count") for f in _FINDER_FIELDS},
        "distances.calls": (calls["distances.compute"], "count"),
        "distances.self_s": (self_s["distances.compute"], "s"),
        "distances.work": (c["distances.work"], "count"),
        "distances.appearances": (c["distances.appearances"], "count"),
        "distances.walk_s": (self_s["distances.walk"], "s"),
        "temporal_graph.parse_calls": (calls["temporal_graph.parse"], "count"),
        "temporal_graph.parse_s": (self_s["temporal_graph.parse"], "s"),
        "temporal_graph.build_calls": (calls["temporal_graph.build"], "count"),
        "temporal_graph.build_s": (self_s["temporal_graph.build"], "s"),
        "temporal_graph.validate_calls": (calls["temporal_graph.validate"], "count"),
        "temporal_graph.validate_s": (self_s["temporal_graph.validate"], "s"),
        "solver.self_s": (self_s["solver.solve"] + self_s["solver.solve_windowed"], "s"),
        "solver.reconstruct_s": (self_s["solver.reconstruct"], "s"),
        "solver.table_entries": (c["solver.table_entries"], "count"),
        "solver.areas_built": (c["solver.areas_built"], "count"),
        "solver.finder_calls": (c["solver.finder_calls"], "count"),
        "solver.windowed_solves": (windowed_solves / ops, "count"),
    }
    for layer in ("areas", "path_finder", "distances", "temporal_graph", "solver"):
        seconds = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        m[layer + ".share_pct"] = (100.0 * seconds / op_seconds, "%")
    return m
