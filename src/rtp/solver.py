"""Decide short restless temporal s-z paths, above the temporal distance.

With d the unrestricted temporal s-z distance and k the length budget, the
slack ell = k - d bounds how far any solution can stray from monotone
progress toward z. Every query is first bracketed by walks, over one
``incident_index`` of the graph: d is the fewest hops of a temporal walk
(``distances.walk_hops`` with no waiting bound; such a walk is a path),
and when the shortest delta-restless s-z walk is longer than the budget,
no restless path fits either, so the answer is an exact no that builds no
table, runs no probe and spends no share of the error budget. That walk
search records, on the way, the fewest restless-walk hops f from s to
every (vertex, arrival stamp) state within the budget. Only the other
queries take the table path, which fills the table below over the same
index, and visits only the entries a chain within the budget can pass:
a chain through appearance (u, t) enters u within [t - delta, t], after
at least f hops, and needs d(u, t) more. Before the fill runs, that
forward bound picks, from the walk record alone, s's appearances and the
entries whose least f there plus d(u, t) is within the budget; every
other entry is INF and runs no link. A table over
non-isolated vertex appearances is filled outward from the near zone
(appearances at distance within ell of d): near
entries get the shortest restless source path of length at most 2*ell
inside their source-side corridor; far entries take the minimum over
admissible predecessor appearances - at most ell+1 distance levels above,
not later in time - of predecessor value plus the shortest restless
connector of length at most 2*ell+1 inside the corridor between the two
appearances. Only a predecessor that already holds a finite value can
contribute, so the fill keeps, per distance, the appearances it has
reached, and a far entry draws its predecessors from those lists alone.
A link whose corridor cannot hold both ends of its search is dropped,
and each end is asked once, in one order: a source-side link first by
``areas.source_admission``, one bisect; every link then by
``areas.upper_admission``, built once per appearance, which decides
exactly whether the corridor enters the appearance's vertex; only then
does a link build its spec and one ``areas.keep_rule``, which
``areas.holds_start`` asks whether the corridor holds the search's start.
Each remaining link runs one in-place search for its shortest connector
below ``first_sieve_length`` under that ``keep``; only when that finds
none does it build the corridor from the same ``keep`` and probe the
exact lengths from there up, each exact-length probe drawing the next
seed of the fill's stream. The instance is a yes iff some appearance of
z gets a value at most k; the witness is reassembled from recorded
predecessor links and re-validated, so yes answers carry no error. No
answers inherit at most the configured probability from the randomized
exact-length subroutine.

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
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import takewhile

from .areas import (area_graph, area_spec, holds_start, keep_rule, source_admission,
                    upper_admission)
from .distances import (INF, DistanceTable, compute_distances, departure_stamps,
                        walk_hops)
from .path_finder import (FinderConfig, SolveStats, find_exact_restless_path,
                          first_sieve_length, incident_index, pairs_between, search_index)
from .rng import SeedStream
from .temporal_graph import (RestlessPath, TemporalGraph, TimeEdge,
                             VertexAppearance, validate_restless_path)


@dataclass
class DpTable:
    """Filled table plus reconstruction links.

    entries maps each non-isolated appearance to the best known length of
    a restless source path honoring the corridor discipline (INF if
    none). ``fill_table`` fills every entry; on ``solve``'s table path the
    walk search's forward bound picks, before the fill runs, the entries
    it visits, fills them as ``fill_table`` does and leaves every other
    entry INF, with no link. preds maps appearances with
    finite entries to (predecessor appearance or None for near-zone
    entries, connector steps).
    """

    ell: int
    entries: dict[VertexAppearance, int | float] = field(default_factory=dict)
    preds: dict[VertexAppearance, tuple[VertexAppearance | None, tuple[TimeEdge, ...]]] = \
        field(default_factory=dict)


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
            "stats": {**asdict(self.stats),
                      "elapsed_seconds": round(self.stats.elapsed_seconds, 6)},
        }


def fill_table(g: TemporalGraph, dt: DistanceTable, s: int, z: int,
               delta: int, k: int, cfg: FinderConfig, *,
               stats: SolveStats | None = None) -> DpTable:
    """Fill the appearance table for budget k; requires z to be dt's
    target, s != z and finite d(s) <= k."""
    if z != dt.target:
        raise ValueError(f"target {z} is not the distance table's target {dt.target}")
    if s == z:
        raise ValueError("source and target must differ")
    return _fill(g, dt, incident_index(g.time_edges), s, delta, k, cfg,
                 SolveStats() if stats is None else stats)


def _fill(g: TemporalGraph, dt: DistanceTable, incident: dict[int, list[tuple[int, int]]],
          s: int, delta: int, k: int, cfg: FinderConfig, stats: SolveStats,
          arrivals: dict[tuple[int, int], int] | None = None) -> DpTable:
    """``fill_table`` over the caller's ``incident_index`` of g.

    Without ``arrivals`` the link loop runs for every entry. With them
    (``_arrivals`` of a restless-walk hop record from s whose walks
    include every restless path of g from s), it runs only for s's
    appearances and the entries ``_within_budget`` picks before the fill
    starts; every other entry is INF with no link. A chain through a
    skipped entry is longer than k, and a skipped predecessor offers any
    entry on a chain within k more than that entry's best, so no entry on
    such a chain changes its value or link. table_entries counts every
    entry, entries_visited those the link loop ran for.
    """
    # s's appearances in time order are the distinct stamps of its pairs;
    # d never decreases in time, so the earliest value is the temporal
    # distance
    source_apps = [(t, dt.entries[VertexAppearance(s, t)])
                   for t in dict.fromkeys(t for t, _ in incident.get(s, []))]
    d_source = source_apps[0][1] if source_apps else INF
    if d_source == INF or d_source > k:
        raise ValueError("fill_table requires a temporal s-z path within budget")
    ell = k - d_source
    near_floor = d_source - ell
    table = DpTable(ell=ell, entries=dict.fromkeys(dt.entries, INF))
    seeds = SeedStream(cfg.seed)
    # distance -> the appearances filled with a finite value, in (t, v)
    # order; a level is complete before any nearer level reads it
    reached: dict[int | float, list[VertexAppearance]] = {}
    first_sieve = first_sieve_length(cfg)
    admits_source = source_admission(source_apps)

    visits = dt.entries.items() if arrivals is None else (
        [(VertexAppearance(s, t), d) for t, d in source_apps]
        + _within_budget(dt, incident, delta, k, arrivals))
    order = sorted(visits, key=lambda item: (-item[1], item[0].t, item[0].v))
    stats.entries_visited += len(order)
    for app, d in order:
        u, t_up = app
        if u == s:
            table.entries[app] = 0
            table.preds[app] = (None, ())
            reached.setdefault(d, []).append(app)
            continue
        # links are (predecessor appearance, its distance, its value); the
        # near zone, INF distances included, chains once from the source
        # side at value 0
        if d >= near_floor:
            links = [(None, INF, 0)] if d != INF and ell > 0 else []
            probes = 2 * ell
        else:  # far zone: a strictly farther, no-later, reached appearance
            links = ((pred, d_pred, table.entries[pred])
                     for d_pred in range(d + 1, d + ell + 2)
                     for pred in takewhile(lambda a: a.t <= t_up,
                                           reached.get(d_pred, ())))
            probes = 2 * ell + 1
        best: int | float = INF
        best_link = None
        admits_upper = None  # upper_admission of app, built on first use
        for pred, d_pred, base in links:
            if base + 1 >= best:
                continue
            # a few table lookups reject most links before their corridor
            # rule is built; each end of the search is checked once, the
            # upper one exactly by upper_admission, the start by holds_start
            if pred is None and not admits_source(app, d):
                continue
            if admits_upper is None:
                admits_upper = upper_admission(dt, incident, app, delta)
            if not admits_upper(pred, d_pred):
                continue
            spec = area_spec(dt, pred, app, delta)
            keep = keep_rule(dt, incident, spec)
            if not holds_start(incident, spec, keep, s):
                continue
            frm, t_lo = (s, 0) if pred is None else pred
            limit = min(probes, best - base - 1)  # only improvements
            # one in-place search covers the lengths below the sieve
            # (limit >= 1); only the finder calls after it draw seeds
            found = search_index(incident, frm, u, delta, 1, min(limit, first_sieve - 1),
                                 keep=keep, t_lo=t_lo, t_hi=t_up)
            stats.finder_calls += 1
            if found is None and limit >= first_sieve:
                # the sieve, and the dispatcher's edge count, need the edges
                area = area_graph(g, spec, keep)
                stats.areas_built += 1
                stats.corridor_edges += len(area.time_edges)
                for length in range(first_sieve, limit + 1):
                    found = find_exact_restless_path(
                        area.time_edges, frm, u, delta, length, cfg,
                        seed=seeds.next(), stats=stats)
                    if found is not None:
                        break
            if found is not None:
                best = base + found.length
                best_link = (pred, found.steps)
        table.entries[app] = best
        if best_link is not None:
            table.preds[app] = best_link
            reached.setdefault(d, []).append(app)

    stats.table_entries += len(table.entries)
    return table


def _within_budget(dt: DistanceTable, incident: dict[int, list[tuple[int, int]]],
                   delta: int, k: int, arrivals: dict[tuple[int, int], int]
                   ) -> list[tuple[VertexAppearance, int]]:
    """The forward bound of a fill with budget k: every entry (u, t), with
    its distance, that a chain within k can pass. A chain through (u, t)
    enters u within [t - delta, t], at some recorded arrival (u, t_in)
    after at least its h hops, and needs d(u, t) more, so the entry is
    kept iff some arrival with t_in <= t <= t_in + delta has
    h + d(u, t) <= k."""
    entries = dt.entries
    kept: dict[tuple[int, int], int] = {}
    for (u, t_in), h in arrivals.items():
        for t, _ in pairs_between(incident[u], t_in, t_in + delta):
            d = entries[u, t]
            if h + d > k:
                break  # d never decreases in time, so no later stamp fits
            kept[u, t] = d
    return [(VertexAppearance(u, t), d) for (u, t), d in kept.items()]


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


def _share(p: float, parts: int, split: str) -> float:
    """p split evenly over `parts` calls. A share that underflows to 0 is
    rejected, not clamped: a larger share would weaken the bound on p, and
    a share below the smallest positive double cannot be carried by
    FinderConfig.error_prob. Honouring it would need a log2 budget threaded
    through FinderConfig, fill_table and _trials_for, for a p no caller
    uses."""
    share = p / parts
    if share == 0.0:
        raise ValueError(f"error probability p={p!r} is too small: its split "
                         f"{split} = p/{parts} underflows to 0")
    return share


def _result(started: float, stats: SolveStats, witness: RestlessPath | None,
            k: int, k_eff: int, d_source: int | float, p: float,
            sub_p: float | None) -> SolveResult:
    stats.elapsed_seconds = time.perf_counter() - started
    return SolveResult(
        decision=witness is not None, witness=witness, stats=stats, k=k,
        k_effective=k_eff, temporal_distance=d_source,
        ell=k_eff - d_source if d_source <= k_eff else None,
        error_prob=p, subcall_error_prob=sub_p)


def _fill_share(p: float, k_eff: int, d_source: int) -> float:
    """The share of p for each probe of a fill with budget k_eff above
    temporal distance d_source <= k_eff.

    A false no needs a false no at one relevant probe per link of a
    solution's chain: the probe of that link's connector length. Each link
    takes at least one step, so a chain has at most k_eff links, and the
    2*chain*(2*ell+1) >= 2*k_eff shares of p cover them (the chain count
    ceil(k_eff/ell) alone does not: a chain may have up to d links). Only
    randomized sieve decisions spend their share; brute, screened-out and
    certified probes answer exactly."""
    ell = k_eff - d_source
    chain = math.ceil(k_eff / max(1, ell))
    return _share(p, 2 * chain * (2 * ell + 1), "p/(2*chain*(2*ell+1))")


def _no_walk_within(incident: dict[int, list[tuple[int, int]]], s: int, z: int,
                    delta: int, k_eff: int,
                    record: dict[tuple[int, int], int] | None = None) -> bool:
    """The walk bracket: whether every delta-restless s-z walk over
    ``incident`` is longer than k_eff. Every restless path is a restless
    walk, so then the answer is an exact no. A ``record`` gets the fewest
    hops of every walk state within k_eff, as ``walk_hops`` stores them."""
    return walk_hops(incident, s, z, delta, 1, INF, k_eff, record) > k_eff


def _arrivals(hops: dict[tuple[int, int], int], z: int,
              k: int) -> dict[tuple[int, int], int]:
    """The states of a ``walk_hops`` record to z within k hops that a
    fill's forward bound can use, with their hops: a state off z at k hops
    is left out, since d >= 1 off z, so no entry it reaches fits k."""
    return {state: h for state, h in hops.items() if h < k or state[0] == z}


def solve(g: TemporalGraph, s: int, z: int, delta: int, k: int,
          p: float, cfg: FinderConfig) -> SolveResult:
    """Decide whether a delta-restless temporal s-z path of length at most
    k exists; on yes, return a validated witness."""
    _check_query(g, s, z, delta, k, p)
    started = time.perf_counter()
    incident = incident_index(g.time_edges)
    # a fewest-hop temporal walk is a path, so it is never longer than n - 1
    d_source = walk_hops(incident, s, z, INF, 1, INF, g.vertex_count - 1)
    k_eff = min(k, max(1, g.vertex_count - 1))  # no simple path is longer
    hops: dict[tuple[int, int], int] = {}
    if d_source <= k_eff and _no_walk_within(incident, s, z, delta, k_eff, hops):
        # an exact no before any table, that still reports the split a
        # fill would have used
        return _result(started, SolveStats(), None, k, k_eff, d_source, p,
                       _fill_share(p, k_eff, d_source))
    return _solve_table(g, incident, s, z, delta, k, d_source, p, cfg, started,
                        _arrivals(hops, z, k_eff))


def _solve_table(g: TemporalGraph, incident: dict[int, list[tuple[int, int]]],
                 s: int, z: int, delta: int, k: int, d_source: int | float, p: float,
                 cfg: FinderConfig, started: float,
                 arrivals: dict[tuple[int, int], int] | None = None
                 ) -> SolveResult:
    """``solve`` after its walk bracket: the distance table, the fill over
    ``incident`` (an ``incident_index`` of g) and the reconstruction, with
    d_source the temporal s-z distance in g. The fill visits only the
    entries that ``arrivals``, from the bracket's hop record, picks (None:
    every entry). A d_source above the budget stops here, with all-zero
    counters."""
    stats = SolveStats()
    k_eff = min(k, max(1, g.vertex_count - 1))
    if d_source > k_eff:
        return _result(started, stats, None, k, k_eff, d_source, p, None)
    sub_p = _fill_share(p, k_eff, d_source)
    dt = compute_distances(g, z)
    dp = _fill(g, dt, incident, s, delta, k_eff, replace(cfg, error_prob=sub_p), stats,
               arrivals)

    best_app = None
    best_val: int | float = INF
    for t in dict.fromkeys(t for t, _ in incident.get(z, [])):  # z's stamps, in order
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
    can shrink the slack. With n = vertex_count, every d(s, t) here comes
    from ``walk_hops`` with no waiting bound over one incident index of g:
    a fewest-hop temporal walk is a path, so no distance table of g is
    built. The temporal distance is that search from stamp 1, bounded at
    n - 1. Departures with d(s, t0) > k_eff = min(k, max(1, n - 1)) are
    skipped; d grows with t0, so the rest are a prefix of s's stamps,
    which ``departure_stamps`` finds by bisection. The error budget is
    split evenly over the departures (subcall_error_prob), one share each,
    solved or rejected: a false no needs a false no from a window that
    holds a solution, and at most len(departures) windows are solved, so
    their shares sum to at most p.

    Then the query is bracketed once, as in ``solve``: when the shortest
    delta-restless s-z walk of all of g is longer than k_eff, no window
    holds a path, and the answer is an exact no with all-zero counters. A
    window whose own distance d(s, t0) exceeds the budget is rejected by
    the search held to the window's stamps, before any graph or table is
    built. Every other window goes straight to the table path of
    ``solve``, with no bracket of its own, and splits its share again over
    its own chain. Its fill skips no entry: the bracket here records no
    walk states, since on windowed queries that search cost more than the
    entries it would skip."""
    _check_query(g, s, z, delta, k, p)
    started = time.perf_counter()
    stats = SolveStats()
    k_eff = min(k, max(1, g.vertex_count - 1))
    incident = incident_index(g.time_edges)
    d_source = walk_hops(incident, s, z, INF, 1, INF, g.vertex_count - 1)
    departures = departure_stamps(incident, s, z, k_eff) if d_source <= k_eff else []
    sub_p = _share(p, len(departures), "p/len(departures)") if departures else None
    if departures and _no_walk_within(incident, s, z, delta, k_eff):
        departures = []
    witness = None
    for t0 in departures:
        t_hi = t0 + (k - 1) * delta + 1
        # the window has g's vertices, so its k_eff is this one, and within
        # it this is its temporal distance
        d_window = walk_hops(incident, s, z, INF, t0, t_hi, k_eff)
        if d_window > k_eff:
            continue
        edges = g.edges_between(t0, t_hi)
        window = TemporalGraph.from_time_edges(
            g.vertex_count, g.lifetime, edges, g.aliases)
        result = _solve_table(window, incident_index(window.time_edges), s, z, delta, k,
                              d_window, sub_p, cfg, started)
        for f in fields(SolveStats):  # _result resets the summed wall time
            setattr(stats, f.name, getattr(stats, f.name) + getattr(result.stats, f.name))
        if result.decision:
            witness = result.witness
            break
    return _result(started, stats, witness, k, k_eff, d_source, p, sub_p)
