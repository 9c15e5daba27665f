from __future__ import annotations

import random

import pytest

import oracles
from conftest import S, A, B, C, D, E, Z, corridor, random_instances
from rtp import (INF, TemporalGraph, TimeEdge, VertexAppearance, area_graph,
                 area_spec, compute_distances, find_exact_restless_path_brute,
                 random_temporal_graph)
from rtp.areas import holds_ends, keep_rule, source_admission
from rtp.path_finder import incident_index, search_index


def naive_a_set(dt, lower, upper, tau):
    """Straight-from-definition filter over the whole appearance table."""
    d_up = dt.entries[upper]
    _, t_up = upper
    out = set()
    for (v, t), d in dt.entries.items():
        if lower is None:
            if d_up < d < INF and t <= t_up:
                out.add((v, t))
        else:
            _, t_lo = lower
            if d_up < d < dt.entries[lower] and t_lo <= t <= t_up:
                out.add((v, t))
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

    b, t_up = upper

    def arrives(y, t):
        if y == b:
            return t_up - delta <= t <= t_up
        return any(VertexAppearance(y, t2) in inside for t2 in range(t, t + delta + 1))

    return tuple(e for e in g.time_edges
                 if any(departs(x, e.t) and arrives(y, e.t)
                        for x, y in ((e.u, e.v), (e.v, e.u))))


def _compare_random_corridors(seed, count, max_vertices, max_lifetime, max_delta=3):
    """Draw corridors on random graphs; check the kept edges, in
    canonical order, against the definitional filter. delta is drawn from
    1 to max_delta, or to the graph's lifetime when max_delta is None."""
    rng = random.Random(seed)
    compared = 0
    while compared < count:
        nv = rng.randint(3, max_vertices)
        g = random_temporal_graph(nv, rng.randint(2, max_lifetime),
                                  rng.uniform(0.8, 3.0), rng.getrandbits(64))
        z = rng.randrange(nv)
        dt = compute_distances(g, z)
        finite = [(app, d) for app, d in dt.entries.items() if d < INF]
        if len(finite) < 2:
            continue
        delta = rng.randint(1, max_delta or g.lifetime)
        upper, d_up = rng.choice(finite)
        b, t_up = upper
        lower = None
        if rng.random() < 0.7:
            choices = [((v, t), d) for (v, t), d in finite
                       if d > d_up and t <= t_up and v != b]
            if not choices:
                continue
            lower, _ = rng.choice(choices)
        spec = area_spec(dt, lower, upper, delta)
        got = corridor(g, dt, spec).time_edges
        want = naive_area_edges(g, dt, lower, upper, delta)
        assert got == want, (lower, upper, delta)
        compared += 1


def test_area_graph_matches_definitional_filter_on_random_graphs():
    _compare_random_corridors(90210, 400, max_vertices=8, max_lifetime=6)


def test_area_graph_matches_definitional_filter_on_long_lifetimes():
    # corridor time spans here are much shorter than the lifetime, so the
    # scan of [lower.t, upper.t] alone must still find every kept edge;
    # with waits up to the lifetime, an arrival's later departures span
    # many stamps, and keep reads them from the arriving vertex's pairs
    _compare_random_corridors(4711, 400, max_vertices=15, max_lifetime=30)
    _compare_random_corridors(4712, 400, max_vertices=15, max_lifetime=30, max_delta=None)


def test_holds_ends_matches_built_corridors():
    # every corridor of every instance: hop corridors between any two
    # finite appearances, and the source-side corridor below each one not
    # of the source (the table fill asks for no such corridor). The end
    # check, the corridor's rule asked about the upper corner's vertex and
    # the search's start, is exact on both kinds of corridor. The source
    # filter before it never rejects a corridor that holds both ends, and
    # each check rejects more than half its corridors
    counts = {"hop": 0, "source": 0, "skipped": 0, "source admitted": 0,
              "hop held": 0}
    for g, s, z, delta, _k in random_instances(2718, 1900, max_vertices=10, max_lifetime=12):
        dt = compute_distances(g, z)
        incident = incident_index(g.time_edges)
        finite = [(app, d) for app, d in dt.entries.items() if d < INF]
        admits_source = source_admission(sorted(
            (t, d) for (v, t), d in dt.entries.items() if v == s))
        for upper, d_up in finite:
            b, t_up = upper
            lowers = [(a, t_lo) for (a, t_lo), d_lo in finite
                      if d_lo > d_up and t_lo <= t_up and a != b]
            if b != s:
                lowers.append(None)
            for lower in lowers:
                spec = area_spec(dt, lower, upper, delta)
                frm = s if lower is None else lower[0]
                keep = keep_rule(dt, incident, spec)
                vertices = oracles.endpoints(area_graph(g, spec, keep).time_edges)
                passes = holds_ends(incident, spec, keep, s)
                assert passes == ({frm, b} <= vertices), spec
                if lower is None:
                    admitted = admits_source(spec.upper, d_up)
                    assert admitted or not passes, spec
                    counts["source admitted"] += admitted
                else:
                    counts["hop held"] += passes
                counts["source" if lower is None else "hop"] += 1
                counts["skipped"] += not passes
    assert counts["hop"] + counts["source"] >= 100_000, counts
    assert counts["source"] >= 5_000 and counts["skipped"] >= 50_000, counts
    # each check rejects more than half of its corridors
    assert 2 * counts["source admitted"] < counts["source"], counts
    assert 2 * counts["hop held"] < counts["hop"], counts


def test_in_place_search_matches_materialized_corridors():
    # for every corridor a table fill could search: the keep rule filters
    # g.time_edges to exactly the materialized corridor (and to the
    # definitional filter), and the in-place search over the whole graph's
    # index returns the same steps as brute over the corridor's edges, at
    # each exact length and, over the range of lengths, the shortest
    counts = {"corridors": 0, "probes": 0, "found": 0, "multi-step": 0}
    for g, s, z, delta, k in random_instances(1618, 300, max_vertices=9, max_lifetime=10):
        dt = compute_distances(g, z)
        d_source = dt.source_distance(s)
        if d_source > k:
            continue
        ell = k - d_source
        incident = incident_index(g.time_edges)
        finite = [(app, d) for app, d in dt.entries.items() if d < INF]
        for upper, d_up in finite:
            b, t_up = upper
            if b == s:
                continue
            lowers = [(a, t_lo) for (a, t_lo), d_lo in finite
                      if d_lo > d_up and t_lo <= t_up and a != b]
            for lower in [None, *lowers]:
                spec = area_spec(dt, lower, upper, delta)
                keep = keep_rule(dt, incident, spec)
                if not holds_ends(incident, spec, keep, s):
                    continue
                area = area_graph(g, spec, keep)
                filtered = tuple(e for e in g.time_edges if keep(e.u, e.v, e.t))
                assert area.time_edges == filtered, spec
                assert filtered == naive_area_edges(g, dt, lower, upper, delta), spec
                frm, t_lo = (s, 0) if lower is None else lower
                hi = 2 * ell + 1
                shortest = None  # the first exact probe that finds a path
                for length in range(1, hi + 1):
                    got = search_index(incident, frm, b, delta, length, length,
                                       keep=keep, t_lo=t_lo, t_hi=t_up)
                    want = find_exact_restless_path_brute(
                        area.time_edges, frm, b, delta, length)
                    assert (got and got.steps) == (want and want.steps), (spec, length)
                    shortest = shortest or got
                    counts["probes"] += 1
                    counts["found"] += want is not None
                    counts["multi-step"] += want is not None and length > 1
                # one range search returns that path, and None iff every probe does
                ranged = search_index(incident, frm, b, delta, 1, hi,
                                      keep=keep, t_lo=t_lo, t_hi=t_up)
                assert (ranged and ranged.steps) == (shortest and shortest.steps), spec
                counts["corridors"] += 1
    assert counts["corridors"] >= 5_000 and counts["probes"] >= 30_000, counts
    assert counts["found"] >= 5_000 and counts["multi-step"] >= 2_000, counts


def test_area_edges_are_subgraph_and_vertices_are_endpoints(fig1):
    dt = compute_distances(fig1, Z)
    spec = area_spec(dt, None, VertexAppearance(Z, 6), 2)
    area = corridor(fig1, dt, spec)
    for e in area.time_edges:
        assert fig1.has_time_edge(e)
    # in canonical order, which the finders' incident index relies on
    assert list(area.time_edges) == sorted(area.time_edges, key=lambda e: (e.t, e.u, e.v))


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
        _, t_up = upper
        area = corridor(g, dt, area_spec(dt, None, upper, 2))
        assert all(e.t <= t_up for e in area.time_edges)


def test_direct_corner_to_corner_edge_is_admitted():
    # lower corner a=0 at t=1 adjacent to upper corner b=1 at the lower
    # time, inside the arrival window, with an empty interior
    g = TemporalGraph.from_time_edges(3, 2, [TimeEdge(0, 1, 1), TimeEdge(1, 2, 2)])
    dt = compute_distances(g, 2)
    lower = VertexAppearance(0, 1)   # d = 2
    upper = VertexAppearance(1, 2)   # d = 1
    spec = area_spec(dt, lower, upper, 2)
    area = corridor(g, dt, spec)
    assert area.time_edges == (TimeEdge(0, 1, 1),)


def test_direct_edge_outside_arrival_window_is_dropped():
    g = TemporalGraph.from_time_edges(3, 5, [TimeEdge(0, 1, 1), TimeEdge(1, 2, 5)])
    dt = compute_distances(g, 2)
    spec = area_spec(dt, VertexAppearance(0, 1), VertexAppearance(1, 5), 2)
    # the 0-1 edge sits at stamp 1 < upper.t - delta = 3
    assert corridor(g, dt, spec).time_edges == ()


def test_arrivals_inside_source_area_fall_in_waiting_window():
    checked = 0
    for g, s, z, delta, _k in random_instances(606, 200):
        dt = compute_distances(g, z)
        for app, d in sorted(dt.entries.items()):
            v, t = app
            if d == INF or v == s:
                continue
            area = corridor(g, dt, area_spec(dt, None, app, delta))
            if s not in oracles.endpoints(area.time_edges):
                continue
            triples = [(e.u, e.v, e.t) for e in area.time_edges]
            for path in oracles.enumerate_restless_paths(
                    triples, s, v, delta, 4):
                arrival = path[-1][2]
                assert t - delta <= arrival <= t, (app, path)
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
        pairs = [((a, t_lo), (b, t_up)) for (b, t_up), du in finite
                 for (a, t_lo), dl in finite if dl > du and t_lo <= t_up and a != b]
        if not pairs:
            continue
        lower, upper = rng.choice(pairs)
        delta = rng.randint(1, 3)
        source_side = corridor(g, dt, area_spec(dt, None, lower, delta))
        hop = corridor(g, dt, area_spec(dt, lower, upper, delta))
        shared = oracles.endpoints(source_side.time_edges) & oracles.endpoints(hop.time_edges)
        assert shared <= {lower[0]}
        checked += 1


def test_spec_validation():
    g = TemporalGraph.from_time_edges(3, 2, [TimeEdge(0, 1, 1), TimeEdge(1, 2, 2)])
    dt = compute_distances(g, 2)
    # area_spec is the one checker of a corner pair; AreaSpec checks nothing
    with pytest.raises(ValueError, match="corner vertices must differ"):
        area_spec(dt, VertexAppearance(1, 1), VertexAppearance(1, 2), 2)
    with pytest.raises(ValueError, match="lower corner must not be later"):
        area_spec(dt, VertexAppearance(0, 2), VertexAppearance(1, 1), 2)
    with pytest.raises(ValueError, match="delta must be at least 1"):
        area_spec(dt, None, VertexAppearance(1, 2), 0)
    with pytest.raises(ValueError):  # distances not strictly decreasing
        area_spec(dt, VertexAppearance(1, 2), VertexAppearance(0, 1), 2)
    with pytest.raises(ValueError):  # isolated corner
        area_spec(dt, VertexAppearance(2, 1), VertexAppearance(1, 2), 2)
    with pytest.raises(ValueError):  # isolated upper corner, source side
        area_spec(dt, None, VertexAppearance(0, 2), 2)
    with pytest.raises(ValueError):  # isolated upper corner below a lower one
        area_spec(dt, VertexAppearance(0, 1), VertexAppearance(2, 1), 2)


def test_area_to_temporal_graph_round_trip(fig1):
    dt = compute_distances(fig1, Z)
    area = corridor(fig1, dt, area_spec(dt, None, VertexAppearance(Z, 6), 2))
    sub = TemporalGraph.from_time_edges(fig1.vertex_count, fig1.lifetime,
                                       area.time_edges, fig1.aliases)
    assert set(sub.time_edges) == set(area.time_edges)
    assert sub.vertex_count == fig1.vertex_count
