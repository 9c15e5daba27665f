"""Decide short restless temporal s-z paths, above the temporal distance.

With d the unrestricted temporal s-z distance and k the length budget, the
slack ell = k - d bounds how far any solution can stray from monotone
progress toward z. Every query is first bracketed by walks, over the
graph's ``incident_index``, which ``path_finder.graph_index`` builds once
and shares, read-only, while the graph lives: the query's distance table
and fill, and any later call on the same graph, read the same index. d
is the fewest hops of a temporal walk (``distances.walk_hops`` with no
waiting bound; such a walk is a path), and when the shortest
delta-restless s-z walk is longer than the budget, no restless path fits
either, so the answer is an exact no that builds no table, runs no probe
and makes no randomized decision. That walk
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
in one order: a source-side link first by ``areas.source_admission``, one
bisect on the source side alone; every other link then builds its spec
and one ``areas.keep_rule``, which ``areas.holds_ends`` asks whether the
corridor holds both ends, the appearance's vertex first, then the start.
Each remaining link runs one in-place search for its shortest connector
below ``first_sieve_length`` under that ``keep``; only when that finds
none does it build the corridor from the same ``keep`` and probe the
exact lengths from there up, to at most the corridor's vertex count
minus one, so the header's vertex count, which sets ell, does not set
the probes; each exact-length probe draws the next seed of the fill's
stream. The instance is a yes iff some appearance of z gets a value at
most k; the witness is reassembled from recorded predecessor links and
re-validated, so yes answers carry no error. A no is wrong only if a
randomized exact-length decision misses: the i-th one booked to the
query's ``SolveStats`` misses with probability at most p * 2^-i, whatever
came before it, so all of them together miss with probability at most p.

Entries are filled in order of decreasing distance (per level: increasing
time, then vertex id), which makes every dependency available and, with
first-found tie-breaking, keeps witnesses deterministic under a fixed
seed. Entries on one distance level never depend on each other, so a
level could be filled concurrently without changing results; this
implementation stays single-threaded.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from itertools import takewhile

from .areas import AreaSpec, area_graph, holds_ends, keep_rule, source_admission
from .distances import (INF, DistanceTable, compute_distances, departure_stamps,
                        level_search, walk_hops)
from .path_finder import (FinderConfig, SolveStats, check_ends, find_exact_restless_path,
                          first_sieve_length, graph_index, incident_index, pairs_between,
                          search_index)
from .rng import SeedStream
from .temporal_graph import (RestlessPath, TemporalGraph, TimeEdge, VertexAppearance,
                             validate_restless_path)


@dataclass
class DpTable:
    """Filled table plus reconstruction links.

    entries maps each non-isolated appearance, keyed by a plain ``(v, t)``
    tuple as in the ``DistanceTable``, to the best known length of a
    restless source path honoring the corridor discipline (INF if none);
    a ``VertexAppearance(v, t)`` looks up the same entry. ``fill_table``
    fills every entry; on ``solve``'s table path the walk search's forward
    bound picks, before the fill runs, the entries it visits, fills them
    as ``fill_table`` does and leaves every other entry INF, with no link.
    preds maps appearances with finite entries to (predecessor appearance
    or None for near-zone entries, connector steps).
    """

    ell: int
    entries: dict[tuple[int, int], int | float] = field(default_factory=dict)
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
    """Fill the appearance table for budget k over g's shared
    ``graph_index``; requires z to be dt's target, s != z, delta >= 1 and
    finite d(s) <= k. The fill's randomized decisions, booked to `stats`,
    miss with probability at most cfg.error_prob in total."""
    if z != dt.target:
        raise ValueError(f"target {z} is not the distance table's target {dt.target}")
    check_ends(s, z, delta)
    return _fill(g, dt, graph_index(g), s, delta, k, cfg,
                 SolveStats() if stats is None else stats)


def _fill(g: TemporalGraph, dt: DistanceTable, incident: dict[int, list[tuple[int, int]]],
          s: int, delta: int, k: int, cfg: FinderConfig, stats: SolveStats,
          arrivals: dict[tuple[int, int], int] | None = None) -> DpTable:
    """``fill_table`` over the caller's ``incident_index``, of g's
    time-edges or of those in one stamp range (a windowed solve's window),
    with dt the distance table of the same time-edges. g serves only
    ``area_graph``: every corner comes from dt, so a corridor's ``keep``
    passes no time-edge of g outside the index.

    Without ``arrivals`` the link loop runs for s's appearances and every
    entry with a finite d: an INF entry off s has no link, so it keeps
    INF. With them (a ``walk_hops`` record from s bounded at k, whose
    walks include every restless path of g from s), it runs only for s's
    appearances and the entries ``_within_budget`` picks before the fill
    starts; every other entry is INF with no link. A chain through a
    skipped entry is longer than k, and a skipped predecessor offers any
    entry on a chain within k more than that entry's best, so no entry on
    such a chain changes its value or link. table_entries counts every
    entry; entries_visited counts every entry without ``arrivals``, and
    those the link loop ran for with them.

    Each link is checked in one order: a source-side link first by
    ``source_admission``, which reads the source side alone; every link
    it passes builds its ``AreaSpec`` directly, with no call to
    ``areas.area_spec``, the one checker of a corner pair, whose rules its
    corners meet by construction. It then builds one ``keep_rule``, and
    ``holds_ends`` asks that rule whether the corridor holds both ends of
    the search. Only a link that holds both runs its search. No check
    moves a counter.
    """
    # s's appearances in time order are the distinct stamps of its pairs;
    # d never decreases in time, so the earliest value is the temporal
    # distance
    source_apps = [(t, dt.entries[s, t])
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

    # table keys are plain (v, t) tuples; only the entries the link loop
    # runs for become VertexAppearances, the corners of their corridors
    if arrivals is None:
        visits = [(VertexAppearance(v, t), d) for (v, t), d in dt.entries.items()
                  if d != INF or v == s]
        stats.entries_visited += len(dt.entries)
    else:
        visits = [(VertexAppearance(s, t), d) for t, d in source_apps]
        visits += _within_budget(dt, incident, delta, k, arrivals)
        stats.entries_visited += len(visits)
    order = sorted(visits, key=lambda item: (-item[1], item[0][1], item[0][0]))
    for app, d in order:
        u, t_up = app
        if u == s:
            table.entries[app] = 0
            table.preds[app] = (None, ())
            reached.setdefault(d, []).append(app)
            continue
        # links are (predecessor appearance, its value); the near zone
        # chains once from the source side at value 0
        if d >= near_floor:
            links = [(None, 0)] if ell > 0 else []
            probes = 2 * ell
        else:  # far zone: a strictly farther, no-later, reached appearance
            links = ((pred, table.entries[pred])
                     for d_pred in range(d + 1, d + ell + 2)
                     for pred in takewhile(lambda a: a[1] <= t_up,
                                           reached.get(d_pred, ())))
            probes = 2 * ell + 1
        best: int | float = INF
        best_link = None
        for pred, base in links:
            if base + 1 >= best:
                continue
            # one bisect rejects most source-side links before their
            # corridor rule is built; the rule then checks both ends
            if pred is None and not admits_source(app, d):
                continue
            # no corner check: both corners are table entries, delta was
            # checked on entry, and pred lies on a farther level and is no
            # later than app, so, as d never decreases in time, the two
            # vertices differ
            spec = AreaSpec(app, pred, delta)
            keep = keep_rule(dt, incident, spec)
            if not holds_ends(incident, spec, keep, s):
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
                # no path in the corridor is longer than its vertex count
                # minus one, however large the header's n makes ell
                cap = len({x for e in area.time_edges for x in (e.u, e.v)}) - 1
                for length in range(first_sieve, min(limit, cap) + 1):
                    found = find_exact_restless_path(
                        area.time_edges, frm, u, delta, length, cfg,
                        seed=seeds.next(), stats=stats)
                    if found is not None:
                        break
            if found is not None:
                best = base + found.length
                best_link = (pred, found.steps)
        if best_link is not None:
            table.entries[app] = best
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


def _start_query(g: TemporalGraph, s: int, z: int, delta: int, k: int, p: float
                 ) -> tuple[float, dict[int, list[tuple[int, int]]], int | float, int]:
    """Check a query and start it: its clock, g's shared ``graph_index``,
    which every search of the query and its distance table read, the
    temporal s-z distance and k_eff, the budget that no simple path of g
    exceeds."""
    if not (0 <= s < g.vertex_count and 0 <= z < g.vertex_count):
        raise ValueError("source or target is not a vertex of the graph")
    check_ends(s, z, delta)
    if k < 1:
        raise ValueError("k must be at least 1")
    if not 0.0 < p < 1.0:
        raise ValueError("error probability must be in (0, 1)")
    started = time.perf_counter()
    incident = graph_index(g)
    # a fewest-hop temporal walk is a path, so it is never longer than n - 1
    d_source = walk_hops(incident, s, z, INF, 1, INF, g.vertex_count - 1)
    return started, incident, d_source, min(k, max(1, g.vertex_count - 1))


def _result(started: float, stats: SolveStats, witness: RestlessPath | None,
            k: int, k_eff: int, d_source: int | float, p: float) -> SolveResult:
    stats.elapsed_seconds = time.perf_counter() - started
    return SolveResult(
        decision=witness is not None, witness=witness, stats=stats, k=k,
        k_effective=k_eff, temporal_distance=d_source,
        ell=k_eff - d_source if d_source <= k_eff else None,
        error_prob=p)


def _no_walk_within(incident: dict[int, list[tuple[int, int]]], s: int, z: int,
                    delta: int, k_eff: int,
                    record: dict[tuple[int, int], int] | None = None) -> bool:
    """The walk bracket: whether every delta-restless s-z walk over
    ``incident`` is longer than k_eff. Every restless path is a restless
    walk, so then the answer is an exact no. A ``record`` gets the fewest
    hops of every walk state reached in fewer than k_eff hops, plus z's,
    as ``walk_hops`` stores them, which is the fill's input as is: a state
    off z at k_eff hops reaches no entry within k_eff, since d >= 1 off z."""
    return walk_hops(incident, s, z, delta, 1, INF, k_eff, record) > k_eff


def solve(g: TemporalGraph, s: int, z: int, delta: int, k: int,
          p: float, cfg: FinderConfig) -> SolveResult:
    """Decide whether a delta-restless temporal s-z path of length at most
    k exists; on yes, return a validated witness."""
    started, incident, d_source, k_eff = _start_query(g, s, z, delta, k, p)
    stats = SolveStats()
    witness = None
    hops: dict[tuple[int, int], int] = {}
    # with no temporal path within budget, or a no of the walk bracket, no
    # table is built and the counters stay all zero
    if d_source <= k_eff and not _no_walk_within(incident, s, z, delta, k_eff, hops):
        witness = _table_witness(g, incident, compute_distances(g, z), s, z, delta, k_eff,
                                 replace(cfg, error_prob=p), stats, hops)
    return _result(started, stats, witness, k, k_eff, d_source, p)


def _table_witness(g: TemporalGraph, incident: dict[int, list[tuple[int, int]]],
                   dt: DistanceTable, s: int, z: int, delta: int, k_eff: int,
                   cfg: FinderConfig, stats: SolveStats,
                   arrivals: dict[tuple[int, int], int] | None = None
                   ) -> RestlessPath | None:
    """The table path: the fill of ``dt`` over ``incident``, an
    ``incident_index`` whose time-edges are g's or a stamp range of them
    and whose distance table to z is dt, with d(s) <= k_eff there, and the
    witness of z's best entry within k_eff, reconstructed and validated
    against g (None if no entry is within k_eff). cfg carries the query's
    p. The fill visits only the entries that ``arrivals``, the
    bracket's hop record, picks (None: every entry)."""
    dp = _fill(g, dt, incident, s, delta, k_eff, cfg, stats, arrivals)
    # z's stamps in time order; of equal values, the earliest stamp wins
    best_val, best_t = min(((dp.entries[z, t], t) for t, _ in incident.get(z, [])),
                           default=(INF, None))
    if best_val > k_eff:
        return None
    steps = reconstruct(dp, VertexAppearance(z, best_t))
    witness = validate_restless_path(g, steps, s, z, delta)
    assert witness.length <= k_eff
    return witness


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
    which ``departure_stamps`` finds by bisection.

    Then the query is bracketed once, as in ``solve``: when the shortest
    delta-restless s-z walk of all of g is longer than k_eff, no window
    holds a path, and the answer is an exact no with all-zero counters. A
    window whose own distance d(s, t0) exceeds the budget is rejected by
    the search held to the window's stamps, before its index is built.
    Every other window is no graph but one ``incident_index`` of g's
    time-edges in its stamps; its distance table is ``level_search`` over
    that index, and its fill reads the same index, with no bracket of its
    own. The fill materializes corridors from g and the witness is
    validated against g: every corner comes from the window's table, so a
    corridor's ``keep`` passes no edge outside the window, and a window's
    path is one of g. The fill has no forward bound: the bracket here
    records no walk states, since on windowed queries that search cost
    more than the entries it would skip. Every window adds its counters to
    the query's one ``SolveStats``, and books its randomized decisions
    there, so the windows spend one error budget p between them: the i-th
    decision of the query misses with probability at most p * 2^-i, in
    whichever window it runs."""
    started, incident, d_source, k_eff = _start_query(g, s, z, delta, k, p)
    stats = SolveStats()
    cfg = replace(cfg, error_prob=p)
    departures = departure_stamps(incident, s, z, k_eff) if d_source <= k_eff else []
    if departures and _no_walk_within(incident, s, z, delta, k_eff):
        departures = []
    witness = None
    for t0 in departures:
        t_hi = t0 + (k - 1) * delta + 1
        # the window has g's vertices, so its k_eff is this one, and within
        # it this is its temporal distance
        if walk_hops(incident, s, z, INF, t0, t_hi, k_eff) > k_eff:
            continue
        window = incident_index(g.edges_between(t0, t_hi))
        witness = _table_witness(g, window, level_search(window, z), s, z, delta, k_eff,
                                 cfg, stats)
        if witness is not None:
            break
    return _result(started, stats, witness, k, k_eff, d_source, p)
