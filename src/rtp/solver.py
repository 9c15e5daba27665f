"""Decide short restless temporal s-z paths, above the temporal distance.

With d the unrestricted temporal s-z distance and k the length budget, the
slack ell = k - d bounds how far any solution can stray from monotone
progress toward z. A table over non-isolated vertex appearances is filled
outward from the near zone (appearances at distance within ell of d): near
entries get the shortest restless source path inside their source-side
corridor, probing lengths 1..2*ell; far entries take the minimum over
admissible predecessor appearances - at most ell+1 distance levels above,
not later in time - of predecessor value plus the shortest restless
connector inside the corridor between the two appearances, probing lengths
1..2*ell+1. The instance is a yes iff some appearance of z gets a value at
most k; the witness is reassembled from recorded predecessor links and
re-validated, so yes answers carry no error. No answers inherit at most
the configured probability from the randomized exact-length subroutine.

Entries are filled in order of decreasing distance (per level: increasing
time, then vertex id), which makes every dependency available and, with
first-found tie-breaking, keeps witnesses deterministic under a fixed
seed. Entries on one distance level never depend on each other, so a
level could be filled concurrently without changing results; this
implementation stays single-threaded.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace
from itertools import takewhile

from .areas import area_graph, area_spec
from .distances import INF, DistanceTable, compute_distances
from .path_finder import FinderConfig, FinderStats, find_exact_restless_path
from .rng import SeedStream
from .temporal_graph import (RestlessPath, TemporalGraph, TimeEdge,
                             VertexAppearance, validate_restless_path)


@dataclass
class DpTable:
    """Filled table plus reconstruction links.

    entries maps each non-isolated appearance to the best known length of
    a restless source path honoring the corridor discipline (INF if
    none). preds maps appearances with finite entries to (predecessor
    appearance or None for near-zone entries, connector steps).
    """

    ell: int
    entries: dict[VertexAppearance, int | float] = field(default_factory=dict)
    preds: dict[VertexAppearance, tuple[VertexAppearance | None, tuple[TimeEdge, ...]]] = \
        field(default_factory=dict)


@dataclass
class SolveStats:
    areas_built: int = 0
    finder_calls: int = 0
    finder_ops: int = 0
    table_entries: int = 0
    elapsed_seconds: float = 0.0


@dataclass
class SolveResult:
    decision: bool
    witness: RestlessPath | None
    stats: SolveStats
    k: int
    k_effective: int
    temporal_distance: int | float
    ell: int | None
    error_prob: float
    subcall_error_prob: float | None

    def to_json_dict(self) -> dict:
        witness = None
        if self.witness is not None:
            witness = [{"u": e.u, "v": e.v, "t": e.t} for e in self.witness.steps]
        return {
            "decision": "yes" if self.decision else "no",
            "witness": witness,
            "k": self.k,
            "temporal_distance":
                None if self.temporal_distance == INF else self.temporal_distance,
            "ell": self.ell,
            "stats": {
                "areas_built": self.stats.areas_built,
                "finder_calls": self.stats.finder_calls,
                "finder_ops": self.stats.finder_ops,
                "table_entries": self.stats.table_entries,
                "elapsed_seconds": round(self.stats.elapsed_seconds, 6),
            },
        }


@dataclass
class SeparatorTrace:
    """Which visited positions of a known path split all earlier from all
    later positions by strict distance comparisons."""

    indices: tuple[int, ...]
    d_values: tuple[int | float, ...]


def _departure_distances(path: RestlessPath, dt: DistanceTable) -> list[int | float]:
    # position i departs at the stamp of step i+1; the last position keeps
    # its arrival stamp
    times = [step.t for step in path.steps]
    out = []
    for i, v in enumerate(path.vertices):
        dep = times[i] if i < len(times) else times[-1]
        out.append(dt.entries[VertexAppearance(v, dep)])
    return out


def separator_trace(path: RestlessPath, dt: DistanceTable) -> SeparatorTrace:
    """Mark every position whose departure-time distance is strictly below
    all earlier positions' and strictly above all later positions'."""
    dvals = _departure_distances(path, dt)
    indices = []
    for i, di in enumerate(dvals):
        if all(dj > di for dj in dvals[:i]) and all(dj < di for dj in dvals[i + 1:]):
            indices.append(i)
    return SeparatorTrace(indices=tuple(indices), d_values=tuple(dvals))


def _check_chain_disjoint(g: TemporalGraph, dt: DistanceTable,
                          pred: VertexAppearance, upper: VertexAppearance,
                          delta: int) -> None:
    """Chained corridors may only share the chaining vertex."""
    source_side = area_graph(g, dt, area_spec(dt, None, pred, delta))
    hop = area_graph(g, dt, area_spec(dt, pred, upper, delta))
    shared = source_side.vertices & hop.vertices
    assert shared <= {pred.v}, (
        f"corridors around {pred} share vertices {shared - {pred.v}}")


def fill_table(g: TemporalGraph, dt: DistanceTable, s: int, z: int,
               delta: int, k: int, cfg: FinderConfig, *,
               stats: SolveStats | None = None) -> DpTable:
    """Fill the appearance table for budget k; requires finite d(s) <= k."""
    d_source = dt.source_distance(s)
    if d_source == INF or d_source > k:
        raise ValueError("fill_table requires a temporal s-z path within budget")
    ell = k - d_source
    near_floor = d_source - ell
    table = DpTable(ell=ell)
    fstats = FinderStats()
    seeds = SeedStream(cfg.seed)

    by_distance: dict[int, list[VertexAppearance]] = {}
    for app, d in dt.entries.items():
        if d != INF:
            by_distance.setdefault(d, []).append(app)
    for group in by_distance.values():
        group.sort(key=lambda a: (a.t, a.v))

    def search(area, frm: int, to: int, length: int) -> RestlessPath | None:
        call_cfg = replace(cfg, seed=seeds.next())
        return find_exact_restless_path(area.time_edges, frm, to, delta, length,
                                        call_cfg, stats=fstats)

    order = sorted(dt.entries.items(), key=lambda item: (-item[1], item[0].t, item[0].v))
    for app, d in order:
        u, t_up = app
        if u == s:
            table.entries[app] = 0
            table.preds[app] = (None, ())
            continue
        if d >= near_floor:  # near zone, INF distances included
            value: int | float = INF
            link = None
            if d != INF and ell > 0:
                area = area_graph(g, dt, area_spec(dt, None, app, delta))
                if stats is not None:
                    stats.areas_built += 1
                if s in area.vertices and u in area.vertices:
                    for length in range(1, 2 * ell + 1):
                        found = search(area, s, u, length)
                        if found is not None:
                            value = length
                            link = (None, found.steps)
                            break
            table.entries[app] = value
            if link is not None:
                table.preds[app] = link
            continue
        # far zone: chain from a strictly farther, no-later appearance
        best: int | float = INF
        best_link = None
        for d_pred in range(d + 1, d + ell + 2):
            for pred in by_distance.get(d_pred, ()):
                if pred.t > t_up:
                    continue
                base = table.entries.get(pred, INF)
                if base == INF or base + 1 >= best:
                    continue
                area = area_graph(g, dt, area_spec(dt, pred, app, delta))
                if stats is not None:
                    stats.areas_built += 1
                if pred.v not in area.vertices or u not in area.vertices:
                    continue
                limit = 2 * ell + 1
                if best != INF:
                    limit = min(limit, int(best) - base - 1)  # only improvements
                for length in range(1, limit + 1):
                    found = search(area, pred.v, u, length)
                    if found is not None:
                        best = base + length
                        best_link = (pred, found.steps)
                        break
        table.entries[app] = best
        if best_link is not None:
            table.preds[app] = best_link
            if __debug__:
                _check_chain_disjoint(g, dt, best_link[0], app, delta)

    if stats is not None:
        stats.finder_calls += fstats.calls
        stats.finder_ops += fstats.sieve_ops
        stats.table_entries = len(table.entries)
    return table


def reconstruct(dp: DpTable, end: VertexAppearance) -> tuple[TimeEdge, ...]:
    """Concatenate stored connector subpaths along predecessor links.

    Returns the step sequence from the source to `end` (empty when `end`
    is a source appearance).
    """
    if dp.entries.get(end, INF) == INF:
        raise ValueError(f"no finite entry for {end}")
    pieces: list[tuple[TimeEdge, ...]] = []
    app: VertexAppearance | None = end
    guard = len(dp.entries) + 1
    while app is not None:
        link = dp.preds.get(app)
        assert link is not None, f"broken predecessor chain at {app}"
        pred, steps = link
        pieces.append(steps)
        app = pred
        guard -= 1
        assert guard >= 0, "predecessor chain has a cycle"
    steps_out: list[TimeEdge] = []
    for piece in reversed(pieces):
        steps_out.extend(piece)
    assert len(steps_out) == dp.entries[end], (
        f"reconstructed length {len(steps_out)} != table value {dp.entries[end]}")
    return tuple(steps_out)


def _check_query(g: TemporalGraph, s: int, z: int, delta: int, k: int,
                 p: float) -> None:
    if not (0 <= s < g.vertex_count and 0 <= z < g.vertex_count):
        raise ValueError("source or target is not a vertex of the graph")
    if s == z:
        raise ValueError("source and target must differ")
    if delta < 1:
        raise ValueError("delta must be at least 1")
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0.0 < p < 1.0:
        raise ValueError("error probability must be in (0, 1)")


def _result(started: float, stats: SolveStats, witness: RestlessPath | None,
            k: int, k_eff: int, d_source: int | float, p: float,
            sub_p: float | None) -> SolveResult:
    stats.elapsed_seconds = time.perf_counter() - started
    return SolveResult(
        decision=witness is not None, witness=witness, stats=stats, k=k,
        k_effective=k_eff, temporal_distance=d_source,
        ell=k_eff - d_source if d_source <= k_eff else None,
        error_prob=p, subcall_error_prob=sub_p)


def solve(g: TemporalGraph, s: int, z: int, delta: int, k: int,
          p: float, cfg: FinderConfig) -> SolveResult:
    """Decide whether a delta-restless temporal s-z path of length at most
    k exists; on yes, return a validated witness."""
    _check_query(g, s, z, delta, k, p)
    started = time.perf_counter()
    stats = SolveStats()
    dt = compute_distances(g, z)
    d_source = dt.source_distance(s)
    k_eff = min(k, max(1, g.vertex_count - 1))  # no simple path is longer

    if d_source == INF or d_source > k_eff:
        return _result(started, stats, None, k, k_eff, d_source, p, None)

    ell = k_eff - d_source
    # split the budget over the longest possible chain of subroutine calls,
    # times the per-link probe count
    chain = math.ceil(k_eff / max(1, ell))
    sub_p = p / (2 * chain * (2 * ell + 1))
    run_cfg = replace(cfg, error_prob=sub_p)

    dp = fill_table(g, dt, s, z, delta, k_eff, run_cfg, stats=stats)

    best_app = None
    best_val: int | float = INF
    for t in dt.appearance_times(z):
        app = VertexAppearance(z, t)
        val = dp.entries.get(app, INF)
        if val < best_val:
            best_val = val
            best_app = app
    if best_app is None or best_val > k_eff:
        return _result(started, stats, None, k, k_eff, d_source, p, sub_p)

    steps = reconstruct(dp, best_app)
    witness = validate_restless_path(g, steps, s, z, delta)
    assert witness.length <= k_eff
    return _result(started, stats, witness, k, k_eff, d_source, p, sub_p)


def solve_windowed(g: TemporalGraph, s: int, z: int, delta: int, k: int,
                   p: float, cfg: FinderConfig) -> SolveResult:
    """Solve once per departure time t0 of s on the stamps [t0, t0 +
    (k-1)*delta + 1] only, which holds every solution departing at t0 and
    can shrink the slack. Departures with d(s, t0) > k are skipped; d grows
    with t0, so the rest are a prefix. The error budget is split evenly
    over the windows tried (subcall_error_prob)."""
    _check_query(g, s, z, delta, k, p)
    started = time.perf_counter()
    stats = SolveStats()
    dt = compute_distances(g, z)
    d_source = dt.source_distance(s)
    k_eff = min(k, max(1, g.vertex_count - 1))
    departures = list(takewhile(lambda t0: dt.get(s, t0) <= k_eff,
                                dt.appearance_times(s)))
    sub_p = p / len(departures) if departures else None
    witness = None
    for t0 in departures:
        window = TemporalGraph.from_time_edges(
            g.vertex_count, g.lifetime,
            g.edges_between(t0, t0 + (k - 1) * delta + 1), g.aliases)
        result = solve(window, s, z, delta, k, sub_p, cfg)
        for f in fields(SolveStats):  # _result resets the summed wall time
            setattr(stats, f.name, getattr(stats, f.name) + getattr(result.stats, f.name))
        if result.decision:
            witness = result.witness
            break
    return _result(started, stats, witness, k, k_eff, d_source, p, sub_p)
