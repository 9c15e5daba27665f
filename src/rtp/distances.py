"""Temporal distances to a fixed target vertex, and shortest walks.

d(v, t) is the length of a shortest temporal v-z path that departs at time
t or later. ``compute_distances`` fills a ``DistanceTable`` with the values
of all non-isolated vertex appearances (v on some edge at t), the entries
alone with no derived index, by ``level_search``: one level search outward
from z over the graph's ``path_finder.incident_index``, the one
``path_finder.graph_index`` shares while the graph lives, so a table and a
walk distance of one graph, or a solve's searches and its table, build it
once between them; neither search mutates it. d never decreases
in time, so each vertex's appearances at distance h are the stamps its
latest departure toward z gains once h hops are allowed, and the next
level scans only the pairs at those stamps, each pair once. The table is
keyed by plain ``(v, t)`` tuples; a ``VertexAppearance(v, t)`` hashes and
compares equal to its tuple, so it looks up the same entry. A windowed
solve builds no graph for a window: the window's table is ``level_search``
over the window's own index, which its table fill reads too.

Shortest walks (vertex repeats allowed) from one source come from one
breadth-first search over (vertex, arrival stamp) states, ``walk_hops``,
held to a range of stamps and bounded in hops. With a waiting bound it
gives ``restless_walk_distance``, the polynomial lower bound on restless
path length; given a record, it also keeps the fewest hops of every state
reached in fewer hops than its bound, plus z's, which bounds a table fill
from the source side. With no waiting bound it is a fewest-hop temporal
walk, which is a path, so it gives d(s, t) for one source without a
table: a windowed solve takes its temporal distance, its departures
(``departure_stamps``) and every per-window distance check from it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .path_finder import check_ends, graph_index, pairs_between
from .temporal_graph import TemporalGraph

INF = math.inf


@dataclass
class DistanceTable:
    """d(v, t) for every non-isolated appearance, with INF for unreachable.

    The table is its entries alone, keyed by plain ``(v, t)`` tuples, with
    no derived index: a reader that wants another order builds it. A
    ``VertexAppearance(v, t)`` looks up the same entry as ``(v, t)``. work
    counts the incident-index pairs the level search scanned (each pair at
    most once, so work <= 2 * |E|), as a linearity diagnostic.
    """

    target: int
    entries: dict[tuple[int, int], int | float] = field(default_factory=dict)
    work: int = 0

    def get(self, v: int, t: int, default=None):
        return self.entries.get((v, t), default)

    def source_distance(self, s: int) -> int | float:
        """The least d over s's non-isolated appearances (INF if none).

        d never decreases in time, so this is d at s's earliest appearance,
        the unrestricted temporal s-target distance.
        """
        return min((d for (v, _t), d in self.entries.items() if v == s), default=INF)


def compute_distances(g: TemporalGraph, z: int) -> DistanceTable:
    """Fill the full distance table: ``level_search`` over the graph's
    shared ``path_finder.graph_index``, outward from z."""
    if not 0 <= z < g.vertex_count:
        raise ValueError(f"target {z} is not a vertex of the graph")
    return level_search(graph_index(g), z)


def level_search(incident: dict[int, list[tuple[int, int]]], z: int) -> DistanceTable:
    """The distance table to z of the time-edges that ``incident`` (a
    ``path_finder.incident_index``) holds, in one level search outward
    from z.

    ``latest[v]`` is the latest stamp at which v can depart and still reach
    z within the hops counted so far (INF for z). Level d scans, for each
    vertex whose ``latest`` grew at level d - 1 (z at level 0), its pairs
    with before < t <= after: d never decreases in time, so those stamps
    are exactly its appearances at distance d. Each scanned pair (t, v)
    lets v depart at t into one of them, so it offers ``latest[v] = t`` for
    level d + 1. The bound is inclusive, so an equal-stamp chain takes one
    hop per level. Each pair is scanned once, at most 2 * |E| in all, and
    the stamps never scanned are INF.
    """
    entries: dict[tuple[int, int], int | float] = {}
    work = 0
    latest: dict[int, int | float] = {z: INF}
    grown: dict[int, int | float] = {z: -INF}  # vertex -> its latest before it grew
    level = 0
    while grown:
        offers: dict[int, int] = {}
        for w, before in grown.items():
            pairs = incident.get(w, [])
            lo = bisect_right(pairs, (before, INF))
            hi = bisect_right(pairs, (latest[w], INF), lo)
            work += hi - lo
            for t, v in pairs[lo:hi]:
                entries[w, t] = level
                if t > offers.get(v, -INF):
                    offers[v] = t
        grown = {}
        for v, t in offers.items():
            old = latest.get(v, -INF)
            if t > old:
                latest[v] = t
                grown[v] = old
        level += 1
    for w, pairs in incident.items():
        for t, _ in pairs[bisect_right(pairs, (latest.get(w, -INF), INF)):]:
            entries[w, t] = INF
    return DistanceTable(target=z, entries=entries, work=work)


def _next_unclaimed(claimed: dict[int, int], i: int) -> int:
    """The first index at or after i that ``claimed`` does not map, with
    every index passed on the way remapped to it."""
    root = i
    while root in claimed:
        root = claimed[root]
    while i != root:
        claimed[i], i = root, claimed[i]
    return root


def walk_hops(incident: dict[int, list[tuple[int, int]]], s: int, z: int,
              delta: int | float, t_lo: int, t_hi: int | float,
              bound: int | float,
              record: dict[tuple[int, int], int] | None = None) -> int | float:
    """Fewest hops of a delta-restless s-z walk with every step in
    [t_lo, t_hi] when that is at most ``bound`` (at least 1); INF otherwise.

    A breadth-first search over (vertex, arrival stamp) states of a
    ``path_finder.incident_index``. Hop 1 takes every pair of s in range;
    from a state (v, t) the next hop takes any pair of v in
    [t, min(t + delta, t_hi)]. A step back into s is dropped: hop 1
    already departs at every stamp. z's states are never expanded, and a
    state off z reached at ``bound`` hops is dropped, since it would never
    be expanded either. A pair is claimed by the first state that scans
    it, which holds the fewest hops that can take it, and a later scan of
    v jumps over v's claimed runs, so each pair is taken once however
    much the windows overlap. With ``delta`` INF this is the fewest hops
    of a temporal walk, which waits for free.

    With a ``record`` dict the search does not stop at z: it runs to
    ``bound`` and stores in ``record`` the fewest hops of every state it
    reaches in fewer than ``bound`` hops, plus z's states within
    ``bound``, each state expanded once, at its first level.
    """
    claimed: dict[int, dict[int, int]] = {}
    found: int | float = INF
    frontier = []
    for t, w in pairs_between(incident.get(s, []), t_lo, t_hi):
        if w == z:
            if record is None:
                return 1
            found = 1
            record[w, t] = 1
        elif bound <= 1:
            continue
        elif record is None:
            frontier.append((w, t))
        elif (w, t) not in record:
            record[w, t] = 1
            frontier.append((w, t))
    hops = 1
    while frontier and hops < bound:
        hops += 1
        deeper = hops < bound  # whether the states reached now are expanded
        reached = []
        for v, t in frontier:
            pairs = incident[v]
            runs = claimed.setdefault(v, {})
            i = bisect_left(pairs, (t,))
            end = bisect_right(pairs, (min(t + delta, t_hi), INF), i)
            while i < end:
                if i in runs:
                    i = _next_unclaimed(runs, i)
                    continue
                t_next, w = pairs[i]
                if w == z:
                    if record is None:
                        return hops
                    found = min(found, hops)
                    record.setdefault((w, t_next), hops)
                elif deeper and w != s:
                    if record is None:
                        reached.append((w, t_next))
                    elif (w, t_next) not in record:
                        record[w, t_next] = hops
                        reached.append((w, t_next))
                runs[i] = i + 1
                i += 1
        frontier = reached
    return found


def departure_stamps(incident: dict[int, list[tuple[int, int]]], s: int, z: int,
                     bound: int) -> list[int]:
    """The stamps t of s's appearances with d(s, t) <= ``bound``, in
    increasing order; s != z.

    d(s, t) is ``walk_hops`` from t on with no waiting bound, bounded at
    ``bound``. d never decreases in t, so the list is a prefix of s's
    distinct stamps, and bisection finds its end in O(log stamps) searches.
    """
    stamps = list(dict.fromkeys(t for t, _ in incident.get(s, [])))
    end = bisect_left(stamps, True,
                      key=lambda t: walk_hops(incident, s, z, INF, t, INF, bound) > bound)
    return stamps[:end]


def restless_walk_distance(g: TemporalGraph, s: int, z: int, delta: int) -> int | float:
    """Minimum length of a delta-restless temporal s-z walk, or INF.

    ``walk_hops`` over the graph's shared ``path_finder.graph_index``,
    unbounded. A walk may revisit vertices, so this is a lower bound for
    restless path length and a fast no-certificate.
    """
    if not (0 <= s < g.vertex_count and 0 <= z < g.vertex_count):
        raise ValueError("source or target is not a vertex of the graph")
    check_ends(s, z, delta)
    return walk_hops(graph_index(g), s, z, delta, 1, INF, INF)
