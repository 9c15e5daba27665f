from __future__ import annotations

import random

import pytest

import oracles
from conftest import S, A, B, C, D, E, Z, random_instances
from rtp import (INF, TemporalGraph, TimeEdge, VertexAppearance, a_set,
                 area_graph, area_spec, compute_distances, induced_subgraph,
                 random_temporal_graph)
from rtp.areas import AreaSpec


def naive_a_set(dt, lower, upper, tau):
    """Straight-from-definition filter over the whole appearance table."""
    d_up = dt.entries[upper]
    out = set()
    for app, d in dt.entries.items():
        if lower is None:
            if d_up < d < INF and app.t <= upper.t:
                out.add(app)
        else:
            if d_up < d < dt.entries[lower] and lower.t <= app.t <= upper.t:
                out.add(app)
    return out


def naive_area_edges(g, dt, lower, upper, delta):
    """Edges a restless path can cross inside the corridor, checked edge
    for edge in both directions: the departing endpoint leaves from a
    window appearance or from the lower corner at its time; the arriving
    endpoint is the upper corner within its waiting window or leaves
    again from a window appearance within delta."""
    inside = naive_a_set(dt, lower, upper, g.lifetime)

    def departs(x, t):
        return VertexAppearance(x, t) in inside or VertexAppearance(x, t) == lower

    def arrives(y, t):
        if y == upper.v:
            return upper.t - delta <= t <= upper.t
        return any(VertexAppearance(y, t2) in inside for t2 in range(t, t + delta + 1))

    return {e for e in g.time_edges
            if any(departs(x, e.t) and arrives(y, e.t)
                   for x, y in ((e.u, e.v), (e.v, e.u)))}


def test_a_set_empty_open_interval(fig1):
    dt = compute_distances(fig1, Z)
    # d(e,6)=1 and d(b,4)=2: no integer strictly between
    spec = area_spec(dt, VertexAppearance(B, 4), VertexAppearance(E, 6), 2)
    assert a_set(dt, spec) == frozenset()


def test_a_set_source_degenerates_to_all_reachable(fig1):
    dt = compute_distances(fig1, Z)
    spec = area_spec(dt, None, VertexAppearance(Z, 6), 2)
    expected = {app for app, d in dt.entries.items() if 0 < d < INF}
    assert a_set(dt, spec) == expected


def test_a_set_fig1_upper_e4(fig1):
    dt = compute_distances(fig1, Z)
    spec = area_spec(dt, None, VertexAppearance(E, 4), 2)
    want = naive_a_set(dt, None, VertexAppearance(E, 4), fig1.lifetime)
    got = a_set(dt, spec)
    assert got == want
    assert VertexAppearance(S, 1) in got  # d=2 > d(e,4)=1, t fine
    assert VertexAppearance(E, 2) not in got  # d=1 not strictly above


def test_area_graph_matches_definitional_filter_on_random_graphs():
    rng = random.Random(90210)
    compared = 0
    while compared < 400:
        nv = rng.randint(3, 8)
        g = random_temporal_graph(nv, rng.randint(2, 6),
                                  rng.uniform(0.8, 3.0), rng.getrandbits(64))
        z = rng.randrange(nv)
        dt = compute_distances(g, z)
        finite = [(app, d) for app, d in dt.entries.items() if d < INF]
        if len(finite) < 2:
            continue
        delta = rng.randint(1, 3)
        upper, d_up = rng.choice(finite)
        lower = None
        if rng.random() < 0.7:
            choices = [(app, d) for app, d in finite
                       if d > d_up and app.t <= upper.t and app.v != upper.v]
            if not choices:
                continue
            lower, _ = rng.choice(choices)
        spec = area_spec(dt, lower, upper, delta)
        got = set(area_graph(g, dt, spec).time_edges)
        want = naive_area_edges(g, dt, lower, upper, delta)
        assert got == want, (lower, upper, delta)
        compared += 1


def test_area_edges_are_subgraph_and_vertices_are_endpoints(fig1):
    dt = compute_distances(fig1, Z)
    spec = area_spec(dt, None, VertexAppearance(Z, 6), 2)
    area = area_graph(fig1, dt, spec)
    for e in area.time_edges:
        assert fig1.has_time_edge(e)
    assert area.vertices == frozenset(v for e in area.time_edges for v in e.pair)


def test_source_area_never_contains_later_edges():
    rng = random.Random(77)
    for _ in range(100):
        nv = rng.randint(3, 8)
        g = random_temporal_graph(nv, rng.randint(2, 6),
                                  rng.uniform(0.8, 3.0), rng.getrandbits(64))
        z = rng.randrange(nv)
        dt = compute_distances(g, z)
        finite = [app for app, d in dt.entries.items() if d < INF]
        if not finite:
            continue
        upper = rng.choice(finite)
        area = area_graph(g, dt, area_spec(dt, None, upper, 2))
        assert all(e.t <= upper.t for e in area.time_edges)


def test_direct_corner_to_corner_edge_is_admitted():
    # lower corner a=0 at t=1 adjacent to upper corner b=1 at the lower
    # time, inside the arrival window, with an empty interior
    g = TemporalGraph.from_time_edges(3, 2, [TimeEdge(0, 1, 1), TimeEdge(1, 2, 2)])
    dt = compute_distances(g, 2)
    lower = VertexAppearance(0, 1)   # d = 2
    upper = VertexAppearance(1, 2)   # d = 1
    spec = area_spec(dt, lower, upper, 2)
    assert a_set(dt, spec) == frozenset()
    area = area_graph(g, dt, spec)
    assert area.time_edges == (TimeEdge(0, 1, 1),)


def test_direct_edge_outside_arrival_window_is_dropped():
    g = TemporalGraph.from_time_edges(3, 5, [TimeEdge(0, 1, 1), TimeEdge(1, 2, 5)])
    dt = compute_distances(g, 2)
    spec = area_spec(dt, VertexAppearance(0, 1), VertexAppearance(1, 5), 2)
    # the 0-1 edge sits at stamp 1 < upper.t - delta = 3
    assert area_graph(g, dt, spec).time_edges == ()


def test_arrivals_inside_source_area_fall_in_waiting_window():
    checked = 0
    for g, s, z, delta, _k in random_instances(606, 200):
        dt = compute_distances(g, z)
        for app, d in sorted(dt.entries.items()):
            if d == INF or app.v == s:
                continue
            area = area_graph(g, dt, area_spec(dt, None, app, delta))
            if s not in area.vertices:
                continue
            triples = [(e.u, e.v, e.t) for e in area.time_edges]
            for path in oracles.enumerate_restless_paths(
                    triples, s, app.v, delta, 4):
                arrival = path[-1][2]
                assert app.t - delta <= arrival <= app.t, (app, path)
                checked += 1
        if checked > 300:
            break
    assert checked > 50


def test_chained_areas_share_only_the_chaining_vertex():
    rng = random.Random(11)
    checked = 0
    while checked < 200:
        nv = rng.randint(4, 8)
        g = random_temporal_graph(nv, rng.randint(2, 6),
                                  rng.uniform(1.0, 3.0), rng.getrandbits(64))
        z = rng.randrange(nv)
        dt = compute_distances(g, z)
        finite = [(app, d) for app, d in dt.entries.items() if d < INF]
        pairs = [(lo, up) for up, du in finite for lo, dl in finite
                 if dl > du and lo.t <= up.t and lo.v != up.v]
        if not pairs:
            continue
        lower, upper = rng.choice(pairs)
        delta = rng.randint(1, 3)
        source_side = area_graph(g, dt, area_spec(dt, None, lower, delta))
        hop = area_graph(g, dt, area_spec(dt, lower, upper, delta))
        assert source_side.vertices & hop.vertices <= {lower.v}
        checked += 1


def test_spec_validation():
    g = TemporalGraph.from_time_edges(3, 2, [TimeEdge(0, 1, 1), TimeEdge(1, 2, 2)])
    dt = compute_distances(g, 2)
    with pytest.raises(ValueError):  # same vertex at both corners
        AreaSpec(upper=VertexAppearance(1, 2), lower=VertexAppearance(1, 1), delta=2)
    with pytest.raises(ValueError):  # lower later than upper
        AreaSpec(upper=VertexAppearance(1, 1), lower=VertexAppearance(0, 2), delta=2)
    with pytest.raises(ValueError):  # distances not strictly decreasing
        area_spec(dt, VertexAppearance(1, 2), VertexAppearance(0, 1), 2)
    with pytest.raises(ValueError):  # isolated corner
        area_spec(dt, VertexAppearance(2, 1), VertexAppearance(1, 2), 2)


def test_area_to_temporal_graph_round_trip(fig1):
    dt = compute_distances(fig1, Z)
    area = area_graph(fig1, dt, area_spec(dt, None, VertexAppearance(Z, 6), 2))
    sub = induced_subgraph(fig1, (), area.time_edges)
    assert set(sub.time_edges) == set(area.time_edges)
    assert sub.vertex_count == fig1.vertex_count
