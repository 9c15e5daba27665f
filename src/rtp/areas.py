"""Corridor subgraphs between two vertex appearances.

Each dynamic-programming hop searches for a short restless path inside a
window of the distance/time plane: appearances whose distance-to-target
lies strictly between the two corner appearances' distances and whose time
lies in the corners' time span. The subgraph keeps the time-edges a
restless path can cross departing only from window appearances or the
lower corner, and ending at the upper corner within its waiting window.

The source-side variant has no lower corner: it admits every reachable
appearance farther from the target than the upper corner.

One corridor costs its window appearances plus the time-edges in its time
span: the window is read as time slices of ``DistanceTable.levels``, an
index by distance built once per table, so once per solve.

Most corridors a table fill asks for cannot hold both ends of the search
it would run. ``holds_endpoints`` decides that from the distance table and
a time-sorted incident index of the graph, at the cost of a bisect and a
few lookups, so only corridors that pass it are built: every hop corridor
built holds both corners, and a source-side corridor built holds its upper
corner and gives the source a window appearance.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .distances import INF, DistanceTable
from .temporal_graph import TemporalGraph, TimeEdge, VertexAppearance


@dataclass(frozen=True)
class AreaSpec:
    """Corner pair for one corridor; lower is None for the source side."""

    upper: VertexAppearance
    lower: VertexAppearance | None
    delta: int

    def __post_init__(self):
        if self.delta < 1:
            raise ValueError("delta must be at least 1")
        if self.lower is not None:
            if self.lower.v == self.upper.v:
                raise ValueError("corner vertices must differ")
            if self.lower.t > self.upper.t:
                raise ValueError("lower corner must not be later than upper corner")


def area_spec(dt: DistanceTable, lower: VertexAppearance | None,
              upper: VertexAppearance, delta: int) -> AreaSpec:
    """Build an AreaSpec, checking the corner distances against dt.

    Both corners must be non-isolated appearances, and the lower corner
    must be strictly farther from the target than the upper corner.
    """
    spec = AreaSpec(upper=upper, lower=lower, delta=delta)
    d_upper = dt.entries.get(upper)
    if d_upper is None:
        raise ValueError("corner appearances must be non-isolated")
    if lower is not None:
        d_lower = dt.entries.get(lower)
        if d_lower is None:
            raise ValueError("corner appearances must be non-isolated")
        if not d_upper < d_lower:
            raise ValueError(
                f"lower corner distance {d_lower} must exceed upper corner distance {d_upper}")
    return spec


def a_set(dt: DistanceTable, spec: AreaSpec) -> frozenset[VertexAppearance]:
    """Appearances strictly inside the corridor's distance/time window.

    With a lower corner: distance in the open interval between the two
    corner distances, time within [lower.t, upper.t]. Without one:
    finite distance strictly above the upper corner's, time at most
    upper.t. Read as time slices of ``dt.levels``.
    """
    d_upper = dt.entries[spec.upper]
    if spec.lower is None:
        d_lower, t_lo = INF, 0  # stamps start at 1
    else:
        d_lower, t_lo = dt.entries[spec.lower], spec.lower.t
    return frozenset(
        app for d, level in dt.levels.items() if d_upper < d < d_lower
        for app in level.between(t_lo, spec.upper.t))


@dataclass(frozen=True)
class AreaGraph:
    """Materialized corridor: retained time-edges plus their endpoints.

    Vertex ids are the parent graph's, so subpaths found inside lift back
    without translation. ``time_edges`` keeps canonical order.
    """

    time_edges: tuple[TimeEdge, ...]
    vertices: frozenset[int]


def area_graph(g: TemporalGraph, dt: DistanceTable, spec: AreaSpec) -> AreaGraph:
    """Materialize the corridor's time-edge set for one spec.

    A time-edge at stamp t is kept when a restless path can cross it
    inside the corridor: one endpoint departs at t from a window
    appearance, or from the lower corner at exactly its time; the other
    is the upper corner with t >= upper.t - delta, or departs again from a
    window appearance within [t, t + delta]. Arrivals are matched by that
    later departure because the window bounds departure distances, and
    d(y, arrival) <= d(y, departure) can fall below it.

    Every kept edge has an endpoint in the window at its stamp, or is the
    lower corner's at lower.t, so only the stamps from lower.t (on the
    source side, the earliest window stamp) to upper.t are scanned; an
    empty source-side window scans nothing.
    """
    inside = a_set(dt, spec)
    b, t_up = spec.upper
    a, t_low = spec.lower or (None, None)
    t_first = t_low if spec.lower else min((app.t for app in inside), default=t_up + 1)

    def arrives(y: int, t: int) -> bool:
        if y == b:
            return t >= t_up - spec.delta
        return any((y, t + j) in inside for j in range(1, spec.delta + 1))

    kept: list[TimeEdge] = []
    for edge in g.edges_between(t_first, t_up):
        u, v, t = edge.u, edge.v, edge.t
        u_in = (u, t) in inside
        v_in = (v, t) in inside
        if u_in and v_in:
            kept.append(edge)
        elif u_in or v_in:
            # the outside endpoint arrives, or departs from the lower corner
            # straight into the window
            y = v if u_in else u
            if (y == a and t == t_low) or arrives(y, t):
                kept.append(edge)
        elif t == t_low and (u == a or v == a):
            if arrives(v if u == a else u, t):
                kept.append(edge)
    vertices = frozenset(v for e in kept for v in e.pair)
    return AreaGraph(time_edges=tuple(kept), vertices=vertices)


def incident_index(g: TemporalGraph) -> dict[int, list[tuple[int, int]]]:
    """Vertex -> the (t, neighbour) pairs of its time-edges, sorted."""
    index: dict[int, list[tuple[int, int]]] = {}
    for edge in g.time_edges:  # canonical order keeps every list sorted
        index.setdefault(edge.u, []).append((edge.t, edge.v))
        index.setdefault(edge.v, []).append((edge.t, edge.u))
    return index


def _incident_between(pairs: list[tuple[int, int]], t_lo: int,
                      t_hi: int) -> list[tuple[int, int]]:
    lo = bisect_left(pairs, (t_lo,))
    return pairs[lo:bisect_right(pairs, (t_hi, INF), lo=lo)]


def holds_endpoints(dt: DistanceTable, incident: dict[int, list[tuple[int, int]]],
                    spec: AreaSpec, source: int) -> bool:
    """Whether ``area_graph`` for spec can hold both ends of the search in
    it: the lower corner's vertex (on the source side, ``source``) and the
    upper corner's. ``incident`` is ``incident_index`` of the graph.

    Neither corner vertex has a window appearance, because d(v, .) never
    decreases in time: d(b, t) <= d(upper) for t <= upper.t, and
    d(a, t) >= d(lower) for t >= lower.t. So the keep rule of
    ``area_graph`` can only enter the upper corner b, at a stamp t in
    [max(lower.t, upper.t - delta), upper.t], from a window appearance or
    from the lower corner at its time; and can only leave the lower corner
    a at lower.t, towards a window appearance at lower.t or towards b when
    lower.t >= upper.t - delta. (A neighbour w of a at lower.t with a
    window appearance later in its arrival window is in the window at
    lower.t already: d(w, lower.t) >= d(lower) - 1 and the window holds a
    distance below d(lower).) For a hop corridor the answer equals
    ``{a, b} <= area.vertices``. On the source side it is whether the
    corridor holds b and ``source`` has a window appearance, which a
    corridor holding ``source`` needs.
    """
    b, t_up = spec.upper
    d_up = dt.entries[spec.upper]
    a, t_lo = spec.lower or (None, 0)
    d_lo = INF if spec.lower is None else dt.entries[spec.lower]

    def inside(w: int, t: int) -> bool:  # for t within [t_lo, t_up]
        return d_up < dt.entries.get((w, t), INF) < d_lo

    if spec.lower is None:
        times = dt.appearance_times(source)
        hi = bisect_right(times, t_up)
        # d(source, .) never decreases in time: unreachable appearances come last
        hi = bisect_left(times, INF, hi=hi, key=lambda t: dt.entries[(source, t)])
        if hi == 0 or not inside(source, times[hi - 1]):
            return False
    elif not any(inside(w, t_lo) or (w == b and t_lo >= t_up - spec.delta)
                 for _t, w in _incident_between(incident.get(a, []), t_lo, t_lo)):
        return False
    return any(inside(w, t) or (w == a and t == t_lo) for t, w in _incident_between(
        incident.get(b, []), max(t_lo, t_up - spec.delta), t_up))
