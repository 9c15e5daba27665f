"""Corridor subgraphs between two vertex appearances.

Each dynamic-programming hop searches for a short restless path inside a
window of the distance/time plane: appearances whose distance-to-target
lies strictly between the two corner appearances' distances and whose time
lies in the corners' time span. The subgraph keeps the time-edges a
restless path can cross departing only from window appearances or the
lower corner, and ending at the upper corner within its waiting window.

The source-side variant has no lower corner: it admits every reachable
appearance farther from the target than the upper corner.
"""

from __future__ import annotations

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
    upper.t.
    """
    d_upper = dt.entries[spec.upper]
    t_hi = spec.upper.t
    if spec.lower is None:
        return frozenset(
            app for app, d in dt.entries.items()
            if d_upper < d < INF and app.t <= t_hi)
    d_lower = dt.entries[spec.lower]
    t_lo = spec.lower.t
    return frozenset(
        app for app, d in dt.entries.items()
        if d_upper < d < d_lower and t_lo <= app.t <= t_hi)


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
    """
    inside = a_set(dt, spec)
    b, t_up = spec.upper
    a, t_low = spec.lower or (None, None)

    def arrives(y: int, t: int) -> bool:
        if y == b:
            return t >= t_up - spec.delta
        return any((y, t + j) in inside for j in range(1, spec.delta + 1))

    kept: list[TimeEdge] = []
    for edge in g.time_edges:
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
