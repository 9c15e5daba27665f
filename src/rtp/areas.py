"""Corridor subgraphs between two vertex appearances.

Each dynamic-programming hop searches for a short restless path inside a
window of the distance/time plane: appearances whose distance-to-target
lies strictly between the two corner appearances' distances and whose time
lies in the corners' time span. The corridor keeps the time-edges a
restless path can cross departing only from window appearances or the
lower corner, and ending at the upper corner within its waiting window.
That rule is written once, as the predicate ``keep_rule(dt, incident,
spec)``, over the distance table and the graph's incident index. A corner
pair is checked once too, by ``area_spec``; an ``AreaSpec`` is a plain
record, which the table fill builds directly from corners it picked by
the same rules.

The source-side variant has no lower corner: it admits every reachable
appearance farther from the target than the upper corner.

A corridor is a view, not a copy: ``keep`` answers for one time-edge from
the distance table in a few lookups. A table fill skips every corridor that
cannot hold both ends of its search. ``source_admission`` first rejects,
with one bisect, a source-side link whose source has no window appearance
by the upper corner's time. Every other link builds its ``AreaSpec`` and
one ``keep``, and ``holds_ends`` asks that ``keep`` about a few incident
pairs of each end: the upper corner's vertex first, then the search's
start.
A link's in-place search walks the graph's incident index under ``keep``
(``path_finder.search_index``), and only a probe that may reach the sieve
gets the edge list, from ``area_graph`` under the same ``keep``. That list
also serves the dispatcher on ``auto``, which counts its time-edges and
hands a corridor of at most 16 to brute.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .distances import INF, DistanceTable
from .path_finder import pairs_between
from .temporal_graph import TemporalGraph, TimeEdge, VertexAppearance


class AreaSpec(NamedTuple):
    """Corner pair for one corridor; lower is None for the source side.

    A plain record with no checks of its own: ``area_spec`` is the one
    checker of a corner pair, and the table fill, whose corners meet
    every rule by construction, builds its specs directly.
    """

    upper: VertexAppearance
    lower: VertexAppearance | None
    delta: int


def area_spec(dt: DistanceTable, lower: tuple[int, int] | None,
              upper: tuple[int, int], delta: int) -> AreaSpec:
    """Build an AreaSpec, checking its corner pair against dt: delta >= 1,
    both corners non-isolated appearances, and a lower corner on another
    vertex, no later than the upper corner and strictly farther from the
    target. A corner may be a plain ``(v, t)`` tuple, such as a table key;
    the spec holds it as a ``VertexAppearance``.
    """
    if delta < 1:
        raise ValueError("delta must be at least 1")
    if lower is not None:
        if lower[0] == upper[0]:
            raise ValueError("corner vertices must differ")
        if lower[1] > upper[1]:
            raise ValueError("lower corner must not be later than upper corner")
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
    return AreaSpec(VertexAppearance._make(upper),
                    None if lower is None else VertexAppearance._make(lower), delta)


def keep_rule(dt: DistanceTable, incident: dict[int, list[tuple[int, int]]],
              spec: AreaSpec) -> Callable[[int, int, int], bool]:
    """The corridor's keep rule: ``keep(x, y, t)`` is whether the time-edge
    {x, y} at stamp t belongs to the corridor of spec, given dt and an
    ``incident`` index (``path_finder.incident_index``) of its graph.

    A time-edge is kept when a restless path can cross it inside the
    corridor: one endpoint departs at t from a window appearance (distance
    strictly between the corners', stamp in [lower.t, upper.t]), or from
    the lower corner at exactly its time; the other is the upper corner
    with t >= upper.t - delta, or departs again from a window appearance
    within [t, t + delta]. Arrivals are matched by that later departure
    because the window bounds departure distances, and d(y, arrival) <=
    d(y, departure) can fall below it. y has a table entry at t2 iff it
    has a pair at t2, so the later departures are read from y's pairs in
    (t, min(t + delta, upper.t)], not from every stamp there: the work per
    edge grows with y's pairs, not with stamp values or delta. The rule is
    symmetric in x and y.
    """
    get = dt.entries.get
    b, t_up = spec.upper
    d_up = dt.entries[spec.upper]
    a, t_lo = spec.lower or (None, 0)  # stamps start at 1
    d_lo = INF if spec.lower is None else dt.entries[spec.lower]

    def arrives(y: int, t: int) -> bool:
        if y == b:
            return t >= t_up - spec.delta
        return any(d_up < get((y, t2), INF) < d_lo for t2, _ in pairs_between(
            incident.get(y, []), t + 1, min(t + spec.delta, t_up)))

    def keep(x: int, y: int, t: int) -> bool:
        if not t_lo <= t <= t_up:
            return False  # no window appearance, nor the lower corner, at t
        x_in = d_up < get((x, t), INF) < d_lo
        y_in = d_up < get((y, t), INF) < d_lo
        if x_in and y_in:
            return True
        if x_in or y_in:
            y = y if x_in else x  # the outside one arrives, or is the lower corner
            return (y == a and t == t_lo) or arrives(y, t)
        return t == t_lo and a in (x, y) and arrives(y if x == a else x, t)

    return keep


@dataclass(frozen=True)
class AreaGraph:
    """Materialized corridor: its retained time-edges, in canonical order.

    Vertex ids are the parent graph's, so subpaths found inside lift back
    without translation.
    """

    time_edges: tuple[TimeEdge, ...]


def area_graph(g: TemporalGraph, spec: AreaSpec,
               keep: Callable[[int, int, int], bool]) -> AreaGraph:
    """Materialize the corridor of spec: the time-edges of g that pass
    ``keep``, the corridor's ``keep_rule`` over g, in canonical order.
    Only the stamps from lower.t (on the source side, the first) to
    upper.t are scanned, since ``keep`` passes no other."""
    t_lo = spec.lower.t if spec.lower else 0
    kept = tuple(e for e in g.edges_between(t_lo, spec.upper.t) if keep(e.u, e.v, e.t))
    return AreaGraph(time_edges=kept)


def holds_ends(incident: dict[int, list[tuple[int, int]]], spec: AreaSpec,
               keep: Callable[[int, int, int], bool], source: int) -> bool:
    """Whether the corridor of spec holds both ends of its search: the
    upper corner's vertex b, asked first, and the start, the lower
    corner's vertex a (on the source side, ``source``). A vertex is in the
    corridor iff ``keep``, the corridor's ``keep_rule``, passes one of its
    pairs in ``incident`` (a ``path_finder.incident_index`` of the graph),
    so this equals asking whether both are endpoints of
    ``area_graph(...).time_edges``.

    Only a few pairs need asking, because d(v, .) never decreases in time.
    b has no window appearance, since d(b, t) <= d(upper) for t <=
    upper.t, and is not the lower corner's vertex, so b is only entered,
    at t in [upper.t - delta, upper.t]. a has no window appearance either,
    since d(a, t) >= d(lower) for t >= lower.t, so a is only left, at
    lower.t; the source may be anywhere up to upper.t.
    """
    b, t_up = spec.upper
    frm, t_lo = spec.lower or (source, 0)
    t_frm = t_lo if spec.lower else t_up

    def held(v: int, t1: int, t2: int) -> bool:
        return any(keep(v, w, t) for t, w in pairs_between(incident.get(v, []), t1, t2))

    return held(b, t_up - spec.delta, t_up) and held(frm, t_lo, t_frm)


def source_admission(appearances: list[tuple[int, int | float]]
                     ) -> Callable[[VertexAppearance, int | float], bool]:
    """Admission for source-side corridors, from the source's appearances
    as time-sorted (t, d) pairs: ``admits(upper, d_up)`` is False only
    where ``holds_ends`` is False on the source side below upper.

    The source s is never the upper corner, and the source side has no
    lower corner, so ``keep`` passes a pair (s, w, t) only if s is a window
    appearance at t, or arrives at one in (t, upper.t]: either way s has
    an appearance at a stamp t' <= upper.t with d_up < d(s, t') < INF.
    d(s, .) never decreases in time, so the finite values are a prefix and
    the last of them at or before upper.t is the largest: one bisect and
    one comparison decide whether any t' qualifies.
    """
    finite = [(t, d) for t, d in appearances if d != INF]
    stamps = [t for t, _ in finite]
    dists = [d for _, d in finite]

    def admits(upper: VertexAppearance, d_up: int | float) -> bool:
        i = bisect_right(stamps, upper.t)
        return i > 0 and dists[i - 1] > d_up

    return admits

