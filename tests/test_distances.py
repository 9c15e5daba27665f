from __future__ import annotations

import random

import pytest

import oracles
from conftest import S, A, B, C, D, E, Z, random_instances
from rtp import (INF, TemporalGraph, TimeEdge, VertexAppearance,
                 compute_distances, random_temporal_graph,
                 restless_walk_distance)
from rtp.distances import departure_stamps, walk_hops
from rtp.path_finder import incident_index


def naive_non_isolated(g: TemporalGraph) -> set[VertexAppearance]:
    """All (v, t) such that some edge at time t touches v, by definition."""
    return {VertexAppearance(v, t)
            for v in range(g.vertex_count)
            for t in range(1, g.lifetime + 1)
            if any(v in pair for pair in oracles.edges_at(g, t))}


def test_non_isolated_fig1(fig1):
    apps = set(compute_distances(fig1, Z).entries)
    for expected in [(S, 1), (S, 2), (S, 5), (E, 1), (E, 2), (E, 4), (E, 6), (Z, 6)]:
        assert VertexAppearance(*expected) in apps
    assert all(app.v != D for app in apps)  # d never touches an edge
    assert len(apps) <= 2 * oracles.graph_size(fig1)
    assert apps == naive_non_isolated(fig1)


def test_non_isolated_trivial_cases():
    single = TemporalGraph(2, 1, [[(0, 1)]])
    assert set(compute_distances(single, 0).entries) == {
        VertexAppearance(0, 1), VertexAppearance(1, 1)}
    empty = TemporalGraph(3, 2, [[], []])
    assert compute_distances(empty, 0).entries == {}


def test_digraph_size_is_linear_in_graph_size():
    rng = random.Random(8)
    for _ in range(50):
        g = random_temporal_graph(rng.randint(2, 10), rng.randint(1, 8),
                                  rng.uniform(0.5, 4.0), rng.getrandbits(64))
        dt = compute_distances(g, 0)
        assert dt.work <= 2 * len(g.time_edges)


def test_distances_fig1_values(fig1):
    dt = compute_distances(fig1, Z)
    assert dt.get(E, 6) == 1
    assert dt.get(Z, 6) == 0
    assert dt.source_distance(S) == 2  # via e at stamp 1, then z at stamp 6
    assert dt.get(S, 2) == 5
    assert dt.get(S, 5) == INF
    assert dt.get(B, 5) == INF
    assert dt.get(C, 2) == 2


def test_distances_target_rows_are_zero(fig1):
    dt = compute_distances(fig1, Z)
    for app, d in dt.entries.items():
        if app.v == Z:
            assert d == 0


def _sparse_and_dense_draws():
    rng = random.Random(4242)
    for _ in range(120):
        nv = rng.randint(2, 8)
        tau = rng.randint(1, 6)
        g = random_temporal_graph(nv, tau, rng.uniform(0.5, 3.0), rng.getrandbits(64))
        yield g, rng.randrange(nv)
    # dense stamps: long same-stamp chains, where the order in which one
    # stamp settles its vertices decides the values
    rng = random.Random(4343)
    for _ in range(120):
        nv = rng.randint(6, 12)
        tau = rng.randint(1, 6)
        g = random_temporal_graph(nv, tau, rng.uniform(4.0, 12.0), rng.getrandbits(64))
        yield g, rng.randrange(nv)


def test_distances_match_oracle_on_random_graphs():
    for g, z in _sparse_and_dense_draws():
        nv = g.vertex_count
        dt = compute_distances(g, z)
        triples = oracles.edge_triples(g)
        assert set(dt.entries) == naive_non_isolated(g)
        for (v, t), d in dt.entries.items():
            want = oracles.temporal_distance(triples, v, t, z, nv - 1)
            assert d == want, (v, t, z, d, want)


def test_distances_monotone_in_time():
    rng = random.Random(555)
    for _ in range(200):
        g = random_temporal_graph(rng.randint(2, 8), rng.randint(1, 6),
                                  rng.uniform(0.5, 3.0), rng.getrandbits(64))
        dt = compute_distances(g, rng.randrange(g.vertex_count))
        for v in range(g.vertex_count):
            times = dt.appearance_times(v)
            values = [dt.get(v, t) for t in times]
            assert values == sorted(values), (v, times, values)


def test_source_distance_of_absent_vertex():
    g = TemporalGraph.from_time_edges(3, 2, [TimeEdge(0, 1, 1)])
    dt = compute_distances(g, 0)
    assert dt.source_distance(2) == INF


def test_fewest_hops_matches_the_window_tables():
    # every departure window solve_windowed may build, at every bound: the
    # search over the whole graph's index, held to the window's stamps with
    # no waiting bound, is the window table's d(s, t0) within the bound, INF
    # past it
    windows = exact = cut = 0
    for g, s, z, delta, k in random_instances(2024, 300, max_vertices=10,
                                              max_lifetime=30):
        incident = incident_index(g.time_edges)
        for t0 in compute_distances(g, z).appearance_times(s):
            t_hi = t0 + (k - 1) * delta + 1
            edges = g.edges_between(t0, t_hi)
            window = TemporalGraph.from_time_edges(g.vertex_count, g.lifetime, edges)
            table = compute_distances(window, z)
            want = table.get(s, t0)
            assert want == table.source_distance(s)
            windows += 1
            for bound in range(1, 7):
                got = walk_hops(incident, s, z, INF, t0, t_hi, bound)
                if want <= bound:
                    assert got == want, (edges, s, z, bound, got, want)
                    exact += 1
                else:
                    assert got > bound, (edges, s, z, bound, got, want)
                    cut += want < INF  # a path exists, past the bound
    assert windows >= 1000 and exact >= 1000 and cut >= 100, (windows, exact, cut)


def test_departure_stamps_match_the_table():
    # at every bound, the bisected walk search lists the stamps of s's
    # appearances whose table value is within the bound, in time order, and
    # nothing past it
    def column(dt, s):
        return [(t, dt.get(s, t)) for t in dt.appearance_times(s)]

    exact = cut = empty = absent = 0
    for g, s, z, _delta, _k in random_instances(2024, 300, max_vertices=10,
                                                max_lifetime=30):
        dt = compute_distances(g, z)
        full = column(dt, s)
        absent += not full
        incident = incident_index(g.time_edges)
        for bound in range(1, 8):
            want = [t for t, d in full if d <= bound]
            got = departure_stamps(incident, s, z, bound)
            assert got == want, (g.time_edges, s, z, bound, got, want)
            exact += bool(want)
            cut += 0 < len(want) < len(full)
            empty += not want and dt.source_distance(s) < INF  # bound below d
    assert exact >= 1000 and cut >= 300 and empty >= 50 and absent >= 10, \
        (exact, cut, empty, absent)
    # dense stamps, where same-stamp chains decide the values, from every s
    # but z, which a windowed solve never asks about
    for g, z in _sparse_and_dense_draws():
        dt = compute_distances(g, z)
        incident = incident_index(g.time_edges)
        for s in range(g.vertex_count):
            if s == z:
                continue
            for bound in (1, 2, 3, g.vertex_count):
                assert departure_stamps(incident, s, z, bound) == \
                    [t for t, d in column(dt, s) if d <= bound], (s, z, bound)


def test_departure_stamps_of_absent_source():
    incident = incident_index(TemporalGraph.from_time_edges(
        3, 2, [TimeEdge(0, 1, 1)]).time_edges)
    assert departure_stamps(incident, 2, 0, 5) == []
    assert departure_stamps(incident, 1, 0, 1) == [1]


def test_fewest_hops_follows_equal_stamp_chains():
    # z = 1 is reached only along 3-0, 0-2, 2-1, all at stamp 2, which
    # canonical order lists out of chain order; the stamp-1 edge 0-1
    # comes before 0 is reached
    incident = incident_index(TemporalGraph.from_time_edges(
        4, 2, [(0, 1, 1), (0, 3, 2), (0, 2, 2), (1, 2, 2)]).time_edges)
    assert [walk_hops(incident, 3, 1, INF, 1, INF, bound)
            for bound in (1, 2, 3, 4)] == [INF, INF, 3, 3]


def test_fewest_hops_is_temporal_not_restless():
    # the only route waits 8 stamps at vertex 1, past any waiting bound
    # below 8: the search with no waiting bound counts it,
    # restless_walk_distance does not
    g = TemporalGraph.from_time_edges(3, 10, [(0, 1, 1), (1, 2, 9)])
    assert walk_hops(incident_index(g.time_edges), 0, 2, INF, 1, INF, 5) == 2
    assert compute_distances(g, 2).source_distance(0) == 2
    assert restless_walk_distance(g, 0, 2, 2) == INF


def test_walk_record_matches_a_per_state_search():
    # a record holds the fewest hops of every state within the bound, and
    # recording changes no answer: the fewest hops to z are its least
    # recorded state, with or without a record
    states = found = 0
    for g, s, z, delta, k in random_instances(515, 300, max_vertices=10, max_lifetime=20):
        triples = oracles.edge_triples(g)
        incident = incident_index(g.time_edges)
        for wait, t_lo, t_hi, bound in ((delta, 1, INF, k), (INF, 1, INF, k),
                                        (delta, 3, 9, k + 2)):
            record = {}
            got = walk_hops(incident, s, z, wait, t_lo, t_hi, bound, record)
            assert record == oracles.walk_state_hops(triples, s, z, wait, t_lo, t_hi, bound), \
                (triples, s, z, wait, t_lo, t_hi, bound)
            assert got == walk_hops(incident, s, z, wait, t_lo, t_hi, bound)
            assert got == min((h for (v, _t), h in record.items() if v == z), default=INF)
            states += len(record)
            found += got < INF
    assert states >= 5000 and found >= 300, (states, found)


def test_restless_walk_fig1(fig1):
    assert restless_walk_distance(fig1, S, Z, 2) == 5
    assert restless_walk_distance(fig1, S, Z, 5) == 2


@pytest.mark.parametrize("s, z", [(0, 99), (99, 0), (-1, 3), (0, 4)])
def test_restless_walk_rejects_endpoints_outside_the_graph(s, z):
    g = TemporalGraph.from_time_edges(4, 3, [(0, 1, 1), (1, 3, 2)])
    with pytest.raises(ValueError, match="not a vertex"):
        restless_walk_distance(g, s, z, 1)


def test_restless_walk_disconnected():
    g = TemporalGraph.from_time_edges(4, 2, [TimeEdge(0, 1, 1), TimeEdge(2, 3, 2)])
    assert restless_walk_distance(g, 0, 3, 3) == INF


def test_restless_walk_can_revisit_vertices():
    # s-a a-b b-a a-z forces a revisit of a; no restless simple path exists
    g = TemporalGraph.from_time_edges(4, 4, [
        TimeEdge(0, 1, 1), TimeEdge(1, 2, 2), TimeEdge(1, 2, 3), TimeEdge(1, 3, 4)])
    assert restless_walk_distance(g, 0, 3, 1) == 4


def test_restless_walk_slow_arrival_outlives_fast_label():
    # reaching v fast at stamp 1 must not shadow the slower bounce
    # s-v@1, v-a@3, a-v@3 whose stamp-3 arrival is the only one alive
    # for the final hop at stamp 5
    g = TemporalGraph.from_time_edges(6, 5, [
        TimeEdge(0, 4, 1), TimeEdge(0, 1, 1), TimeEdge(1, 2, 2),
        TimeEdge(2, 3, 3), TimeEdge(3, 4, 3), TimeEdge(4, 5, 5)])
    assert restless_walk_distance(g, 0, 5, 2) == 4


def test_restless_walk_matches_oracle():
    rng = random.Random(31337)
    wide = random.Random(31338)  # waiting bounds up to past the lifetime
    for _ in range(400):
        nv = rng.randint(2, 8)
        g = random_temporal_graph(nv, rng.randint(1, 7),
                                  rng.uniform(0.5, 4.0), rng.getrandbits(64))
        s, z = rng.sample(range(nv), 2)
        for delta in (rng.randint(1, 4), wide.randint(1, g.lifetime + 2)):
            got = restless_walk_distance(g, s, z, delta)
            want = oracles.restless_walk_min(oracles.edge_triples(g), s, z, delta,
                                             cap=3 * nv * max(1, g.lifetime))
            assert got == want, (s, z, delta, got, want)


def test_restless_walk_on_a_hub_with_waits_as_long_as_the_lifetime():
    # hub 0 meets leaf 1 + t % 30 at each stamp t of 1..3000; leaf 2 alone
    # leads on, to 31 at 3001, and 31 to z = 32 at 3002, so the fewest hops
    # from leaf 1 are 4 (1-0, 0-2, 2-31, 31-32); 33 meets no one. With
    # waits up to the lifetime every hub state reaches every later hub
    # pair, so a search that scanned each state's window in full would
    # take about 3000^2 / 2 pairs per hub level
    leaves, stamps = 30, 3000
    edges = [(0, 1 + t % leaves, t) for t in range(1, stamps + 1)]
    edges += [(2, 31, stamps + 1), (31, 32, stamps + 2)]
    g = TemporalGraph.from_time_edges(34, stamps + 2, edges)
    assert restless_walk_distance(g, 1, 32, g.lifetime) == 4
    assert restless_walk_distance(g, 1, 33, g.lifetime) == INF


def test_lower_bound_chain_on_random_yes_instances():
    checked = 0
    for g, s, z, delta, k in random_instances(808, 300):
        triples = oracles.edge_triples(g)
        path_len = oracles.shortest_restless_path(triples, s, z, delta,
                                                  g.vertex_count - 1)
        if path_len is None:
            continue
        dt = compute_distances(g, z)
        chain = (oracles.static_min(triples, s, z), dt.source_distance(s),
                 restless_walk_distance(g, s, z, delta), path_len)
        assert all(x != INF for x in chain)
        assert chain[0] <= chain[1] <= chain[2] <= chain[3], chain
        checked += 1
    assert checked >= 50


def test_compute_distances_work_grows_linearly():
    rng = random.Random(1)
    ratios = []
    for scale in (4, 8, 16, 32, 64):
        works = []
        sizes = []
        for rep in range(5):
            g = random_temporal_graph(scale, 8, scale / 3.0, rng.getrandbits(64))
            dt = compute_distances(g, 0)
            works.append(dt.work)
            sizes.append(oracles.graph_size(g))
        ratios.append(sum(works) / sum(sizes))
    assert max(ratios) <= 2 * min(ratios), ratios


def test_build_digraph_rejects_bad_target(fig1):
    with pytest.raises(ValueError):
        compute_distances(fig1, 99)
