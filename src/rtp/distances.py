"""Temporal distances to a fixed target vertex, and shortest walks.

d(v, t) is the length of a shortest temporal v-z path that departs at time
t or later. ``compute_distances`` fills a ``DistanceTable`` with the values
of all non-isolated vertex appearances (v on some edge at t), the entries
alone with no derived index, in one backward sweep over the time-sorted
edges: the later stamps are settled first, so a vertex may stand still
into its next later appearance for free, and a small unit-weight Dijkstra
per stamp handles chains of equal-stamp edges.

Shortest walks (vertex repeats allowed) from one source come from one
breadth-first search over (vertex, arrival stamp) states, ``walk_hops``,
held to a range of stamps and bounded in hops. With a waiting bound it
gives ``restless_walk_distance``, the polynomial lower bound on restless
path length; given a record, it also keeps the fewest hops of every state
within its bound, which bounds a table fill from the source side. With no
waiting bound it is a fewest-hop temporal walk, which is a path, so it
gives d(s, t) for one source without a table: a windowed solve takes its
temporal distance, its departures (``departure_stamps``) and every
per-window distance check from it.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Iterator

from .path_finder import incident_index, pairs_between
from .temporal_graph import TemporalGraph, TimeEdge, VertexAppearance

INF = math.inf


def _stamp_adjacency(
        edges: Iterable[TimeEdge]) -> Iterator[tuple[int, dict[int, list[int]]]]:
    """Group stamp-ordered time-edges by stamp; yield (t, {v: neighbours})."""
    for t, group in groupby(edges, key=attrgetter("t")):
        adj: dict[int, list[int]] = {}
        for edge in group:
            adj.setdefault(edge.u, []).append(edge.v)
            adj.setdefault(edge.v, []).append(edge.u)
        yield t, adj


@dataclass
class DistanceTable:
    """d(v, t) for every non-isolated appearance, with INF for unreachable.

    The table is its entries alone, with no derived index: a reader that
    wants another order builds it. work counts the edge relaxations of the
    computing sweep (each edge is relaxed at most once from each endpoint,
    so work <= 2 * |E|), as a linearity diagnostic.
    """

    target: int
    entries: dict[VertexAppearance, int | float] = field(default_factory=dict)
    work: int = 0

    def get(self, v: int, t: int, default=None):
        return self.entries.get(VertexAppearance(v, t), default)

    def appearance_times(self, v: int) -> list[int]:
        """The sorted stamps of v's non-isolated appearances, as a new list."""
        return sorted(t for w, t in self.entries if w == v)

    def source_distance(self, s: int) -> int | float:
        """The least d over s's non-isolated appearances (INF if none).

        d never decreases in time, so this is d at s's earliest appearance,
        the unrestricted temporal s-target distance.
        """
        return min((d for (v, _t), d in self.entries.items() if v == s), default=INF)


def compute_distances(g: TemporalGraph, z: int) -> DistanceTable:
    """Fill the full distance table in one backward sweep over the stamps,
    from the latest down.

    ``later[v]`` holds d at v's next later appearance (z counts as 0 from
    the start). At each stamp every vertex on an edge at t starts from
    ``later`` (standing still costs nothing) and a unit-weight Dijkstra over
    the stamp's edges lets it leave along a same-stamp chain. Each stamp
    costs O(m_t log m_t) for its m_t edges.
    """
    if not 0 <= z < g.vertex_count:
        raise ValueError(f"target {z} is not a vertex of the graph")
    entries: dict[VertexAppearance, int | float] = {}
    work = 0
    later: dict[int, int | float] = {z: 0}
    for t, adj in _stamp_adjacency(reversed(g.time_edges)):
        value = {v: later.get(v, INF) for v in adj}
        heap = [(d, v) for v, d in value.items() if d < INF]
        heapq.heapify(heap)
        while heap:
            d, x = heapq.heappop(heap)
            if d > value[x]:
                continue
            d += 1
            for y in adj[x]:
                work += 1
                if d < value[y]:
                    value[y] = d
                    heapq.heappush(heap, (d, y))
        later.update(value)
        for v, d in value.items():
            entries[VertexAppearance(v, t)] = d
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
    already departs at every stamp. No state is expanded at ``bound``
    hops, nor at z. A pair is claimed by the first state that scans it,
    which holds the fewest hops that can take it, and a later scan of v
    jumps over v's claimed runs, so each pair is taken once however much
    the windows overlap. With ``delta`` INF this is the fewest hops of a
    temporal walk, which waits for free.

    With a ``record`` dict the search does not stop at z: it runs to
    ``bound`` and stores in ``record`` the fewest hops of every state it
    reaches, z's included, each state expanded once, at its first level.
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
        elif record is None:
            frontier.append((w, t))
        elif (w, t) not in record:
            record[w, t] = 1
            frontier.append((w, t))
    hops = 1
    while frontier and hops < bound:
        hops += 1
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
                elif w != s:
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

    ``walk_hops`` over the whole graph's index, unbounded. A walk may
    revisit vertices, so this is a lower bound for restless path length and
    a fast no-certificate.
    """
    if not (0 <= s < g.vertex_count and 0 <= z < g.vertex_count):
        raise ValueError("source or target is not a vertex of the graph")
    if s == z:
        raise ValueError("source and target must differ")
    if delta < 1:
        raise ValueError("delta must be at least 1")
    return walk_hops(incident_index(g.time_edges), s, z, delta, 1, INF, INF)
