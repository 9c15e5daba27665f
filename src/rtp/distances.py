"""Temporal distances to a fixed target vertex.

d(v, t) is the length of a shortest temporal v-z path that departs at time
t or later. All values for non-isolated vertex appearances are computed in
one linear-time pass: build a weighted digraph over appearances (traversal
arcs weigh 1, standing-still arcs weigh 0) and run a deque-based 0/1-BFS
from the target's side.

Also provides the polynomial lower bound: the minimum length of a
waiting-time-bounded s-z walk (vertex repeats allowed).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter

from .temporal_graph import TemporalGraph, VertexAppearance

INF = math.inf

ROOT = VertexAppearance(-1, 0)  # synthetic search origin in the digraph


def non_isolated_appearances(g: TemporalGraph) -> frozenset[VertexAppearance]:
    """All (v, t) such that some edge at time t touches v."""
    out: set[VertexAppearance] = set()
    for edge in g.time_edges:
        out.add(VertexAppearance(edge.u, edge.t))
        out.add(VertexAppearance(edge.v, edge.t))
    return frozenset(out)


@dataclass
class TransformedDigraph:
    """Digraph whose shortest root-to-appearance weights equal d(v, t).

    nodes[0] is the synthetic root; the rest are non-isolated appearances.
    adjacency[i] lists (node_index, weight) with weight 0 or 1. Weight-1
    arcs connect the two endpoint appearances of each time-edge, both
    ways. Weight-0 arcs run from each appearance of a vertex to the same
    vertex's closest earlier appearance, plus one from the root to the
    target's latest appearance.
    """

    nodes: tuple[VertexAppearance, ...]
    adjacency: tuple[tuple[tuple[int, int], ...], ...]
    index: dict[VertexAppearance, int]

    def arc_set(self) -> set[tuple[VertexAppearance, VertexAppearance, int]]:
        return {(self.nodes[i], self.nodes[j], w)
                for i, row in enumerate(self.adjacency) for j, w in row}


def build_transformed_digraph(g: TemporalGraph, z: int) -> TransformedDigraph:
    if not 0 <= z < g.vertex_count:
        raise ValueError(f"target {z} is not a vertex of the graph")
    apps = sorted(non_isolated_appearances(g))
    nodes = (ROOT, *apps)
    index = {app: i for i, app in enumerate(nodes)}
    adjacency: list[list[tuple[int, int]]] = [[] for _ in nodes]

    for edge in g.time_edges:
        ui = index[VertexAppearance(edge.u, edge.t)]
        vi = index[VertexAppearance(edge.v, edge.t)]
        adjacency[ui].append((vi, 1))
        adjacency[vi].append((ui, 1))

    times: dict[int, list[int]] = {}
    for v, t in apps:
        times.setdefault(v, []).append(t)
    for v, ts in times.items():
        for earlier, later in zip(ts, ts[1:]):
            adjacency[index[VertexAppearance(v, later)]].append(
                (index[VertexAppearance(v, earlier)], 0))
    if z in times:
        latest = times[z][-1]
        adjacency[0].append((index[VertexAppearance(z, latest)], 0))

    return TransformedDigraph(
        nodes=nodes,
        adjacency=tuple(tuple(row) for row in adjacency),
        index=index)


@dataclass
class DistanceTable:
    """d(v, t) for every non-isolated appearance, with INF for unreachable.

    work counts deque pushes plus arc relaxations of the computing BFS, as
    a linearity diagnostic.
    """

    target: int
    entries: dict[VertexAppearance, int | float] = field(default_factory=dict)
    work: int = 0

    def __getitem__(self, app: VertexAppearance) -> int | float:
        return self.entries[app]

    def get(self, v: int, t: int, default=None):
        return self.entries.get(VertexAppearance(v, t), default)

    def appearance_times(self, v: int) -> list[int]:
        return sorted(t for (w, t) in self.entries if w == v)

    def source_distance(self, s: int) -> int | float:
        """d at the earliest non-isolated appearance of s (INF if none).

        By time monotonicity this equals the unrestricted temporal s-target
        distance.
        """
        times = self.appearance_times(s)
        if not times:
            return INF
        return self.entries[VertexAppearance(s, times[0])]


def compute_distances(g: TemporalGraph, z: int) -> DistanceTable:
    """Fill the full distance table by 0/1-BFS over the transformed digraph.

    Weight-0 arcs push front, weight-1 arcs push back; nodes settle on
    first pop. Runtime is linear in the graph size.
    """
    dg = build_transformed_digraph(g, z)
    n = len(dg.nodes)
    dist: list[int | float] = [INF] * n
    dist[0] = 0
    work = 0
    queue: deque[int] = deque([0])
    settled = [False] * n
    while queue:
        node = queue.popleft()
        if settled[node]:
            continue
        settled[node] = True
        d = dist[node]
        for target, weight in dg.adjacency[node]:
            work += 1
            nd = d + weight
            if nd < dist[target]:
                dist[target] = nd
                work += 1
                if weight == 0:
                    queue.appendleft(target)
                else:
                    queue.append(target)
    entries = {app: dist[i] for i, app in enumerate(dg.nodes) if i > 0}
    return DistanceTable(target=z, entries=entries, work=work)


def static_distance(g: TemporalGraph, s: int, z: int) -> int | float:
    """Hop distance between s and z in the flattened (time-ignoring) graph."""
    if s == z:
        return 0
    adj: dict[int, set[int]] = {}
    for edge in g.time_edges:
        adj.setdefault(edge.u, set()).add(edge.v)
        adj.setdefault(edge.v, set()).add(edge.u)
    seen = {s}
    frontier = [s]
    hops = 0
    while frontier:
        hops += 1
        nxt = []
        for v in frontier:
            for w in adj.get(v, ()):
                if w in seen:
                    continue
                if w == z:
                    return hops
                seen.add(w)
                nxt.append(w)
        frontier = nxt
    return INF


def restless_walk_distance(g: TemporalGraph, s: int, z: int, delta: int) -> int | float:
    """Minimum length of a delta-restless temporal s-z walk, or INF.

    Chronological sweep over stamps; per vertex we keep the Pareto set of
    (arrival time, hops) labels. Within one stamp a small Dijkstra handles
    chains of equal-stamp edges. A walk may revisit vertices, so this is a
    lower bound for restless path length and a fast no-certificate.
    """
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

    for t, group in groupby(g.time_edges, key=attrgetter("t")):
        adj: dict[int, list[int]] = {}
        for edge in group:
            adj.setdefault(edge.u, []).append(edge.v)
            adj.setdefault(edge.v, []).append(edge.u)
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
