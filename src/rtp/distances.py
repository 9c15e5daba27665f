"""Temporal distances to a fixed target vertex.

d(v, t) is the length of a shortest temporal v-z path that departs at time
t or later. All values for non-isolated vertex appearances (v on some
edge at t) come from one backward sweep over the time-sorted edges: the
later stamps are settled first, so a vertex may stand still into its next
later appearance for free, and a small unit-weight Dijkstra per stamp
handles chains of equal-stamp edges. ``compute_distances`` runs that sweep
unbounded and keeps every value in a ``DistanceTable``, the entries alone
with no derived index. ``departure_distances`` runs the same sweep bounded
at a hop count, expanding no label at or above it, and keeps one source's
values alone: a windowed solve takes its departures and the temporal
distance from it without building a full-graph table. A forward sweep from
one source, bounded in hops, answers that source's distance alone.

Also provides the polynomial lower bound: the minimum length of a
waiting-time-bounded s-z walk (vertex repeats allowed).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Iterator

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


def _backward_sweep(edges: tuple[TimeEdge, ...], z: int, bound: int | float
                    ) -> Iterator[tuple[int, dict[int, int | float], int]]:
    """Yield (t, {v: d(v, t)}, relaxations) for each stamp, latest first.

    ``later[v]`` holds d at v's next later appearance (z counts as 0 from
    the start). At each stamp every vertex on an edge at t starts from
    ``later`` (standing still costs nothing) and a unit-weight Dijkstra over
    the stamp's edges lets it leave along a same-stamp chain. A label at
    ``bound`` or above is not expanded, so every value up to ``bound`` is
    exact and every other value is at least its true distance. Each stamp
    costs O(m_t log m_t) for its m_t edges.
    """
    later: dict[int, int | float] = {z: 0}
    for t, adj in _stamp_adjacency(reversed(edges)):
        value = {v: later.get(v, INF) for v in adj}
        heap = [(d, v) for v, d in value.items() if d < bound]
        heapq.heapify(heap)
        work = 0
        while heap:
            d, x = heapq.heappop(heap)
            if d > value[x]:
                continue
            d += 1
            for y in adj[x]:
                work += 1
                if d < value[y]:
                    value[y] = d
                    if d < bound:
                        heapq.heappush(heap, (d, y))
        later.update(value)
        yield t, value, work


def compute_distances(g: TemporalGraph, z: int) -> DistanceTable:
    """Fill the full distance table in one unbounded backward sweep over the
    stamps, from the latest down."""
    if not 0 <= z < g.vertex_count:
        raise ValueError(f"target {z} is not a vertex of the graph")
    entries: dict[VertexAppearance, int | float] = {}
    work = 0
    for t, value, relaxed in _backward_sweep(g.time_edges, z, INF):
        work += relaxed
        for v, d in value.items():
            entries[VertexAppearance(v, t)] = d
    return DistanceTable(target=z, entries=entries, work=work)


def departure_distances(g: TemporalGraph, s: int, z: int,
                        bound: int) -> list[tuple[int, int]]:
    """(t, d(s, t)) for every appearance of s with d(s, t) <= ``bound``, in
    increasing t.

    ``compute_distances``'s backward sweep, bounded at ``bound`` and keeping
    s's values alone, with no table. d never decreases in t, so the list is
    a prefix of s's appearances, and its first value is the temporal s-z
    distance whenever that is at most ``bound``.
    """
    found = [(t, value[s]) for t, value, _ in _backward_sweep(g.time_edges, z, bound)
             if value.get(s, INF) <= bound]
    found.reverse()
    return found


def fewest_hops(edges: Iterable[TimeEdge], s: int, z: int,
                bound: int) -> int | float:
    """Fewest hops of a temporal s-z walk over stamp-ordered time-edges when
    that is at most ``bound``; INF otherwise.

    The forward mirror of ``compute_distances``: ``hops[v]`` holds the
    fewest hops that reach v by the current stamp (s at 0 from the start),
    a vertex waits for free, and a unit-weight Dijkstra per stamp follows
    same-stamp chains. A prefix is not expanded when it could reach z only
    past ``bound`` hops, or no sooner than z's best label. On a graph of the
    same time-edges this is ``compute_distances(g, z).source_distance(s)``
    wherever that is at most ``bound``, at the cost of one forward pass.
    """
    hops: dict[int, int] = {s: 0}
    limit = bound  # prefixes at limit hops or more are not expanded
    for _t, adj in _stamp_adjacency(edges):
        value = {v: hops[v] for v in adj if v in hops}
        heap = [(d, v) for v, d in value.items() if d < limit]
        if not heap:
            continue
        heapq.heapify(heap)
        while heap:
            d, x = heapq.heappop(heap)
            if d > value[x] or d >= limit:
                continue
            for y in adj[x]:
                if d + 1 < value.get(y, INF):
                    value[y] = d + 1
                    heapq.heappush(heap, (d + 1, y))
        hops.update(value)
        if z in value:
            limit = min(limit, value[z] - 1)
    return hops.get(z, INF)  # every label is at most bound


def restless_walk_distance(g: TemporalGraph, s: int, z: int, delta: int) -> int | float:
    """Minimum length of a delta-restless temporal s-z walk, or INF.

    Chronological sweep over stamps; per vertex we keep the Pareto set of
    (arrival time, hops) labels. Within one stamp a small Dijkstra handles
    chains of equal-stamp edges. A walk may revisit vertices, so this is a
    lower bound for restless path length and a fast no-certificate.
    """
    if not (0 <= s < g.vertex_count and 0 <= z < g.vertex_count):
        raise ValueError("source or target is not a vertex of the graph")
    if s == z:
        raise ValueError("source and target must differ")
    if delta < 1:
        raise ValueError("delta must be at least 1")
    labels: dict[int, list[tuple[int, int]]] = {}
    best = INF

    def enter_value(v: int, t: int) -> int | float:
        if v == s:
            return 0  # departures from the source are unconstrained
        value = INF
        for at, hops in labels.get(v, ()):
            if t - delta <= at <= t - 1 and hops < value:
                value = hops
        return value

    for t, adj in _stamp_adjacency(g.time_edges):
        value: dict[int, int | float] = {}
        arrived: dict[int, int] = {}
        heap: list[tuple[int | float, int]] = []
        for v in adj:
            ev = enter_value(v, t)
            if ev < INF:
                value[v] = ev
                heapq.heappush(heap, (ev, v))
        while heap:
            d0, x = heapq.heappop(heap)
            if d0 > value.get(x, INF):
                continue
            for y in adj[x]:
                cand = d0 + 1
                # every traversal is a genuine arrival at stamp t, even when
                # an older label already lets y move earlier: that label may
                # expire from the waiting window before this one would
                if cand < arrived.get(y, INF):
                    arrived[y] = cand
                if cand < value.get(y, INF):
                    value[y] = cand
                    heapq.heappush(heap, (cand, y))
        for v, hops in arrived.items():
            bucket = labels.setdefault(v, [])
            while bucket and bucket[-1][1] >= hops:
                bucket.pop()
            bucket.append((t, hops))
            if v == z and hops < best:
                best = hops
    return best
