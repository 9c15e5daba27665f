from __future__ import annotations

import random

import pytest

import oracles
from conftest import S, A, B, C, D, E, Z, random_instances
from rtp import (INF, FinderConfig, TemporalGraph, TimeEdge, VertexAppearance,
                 compute_distances, fill_table, parse_temporal_graph,
                 random_temporal_graph, reconstruct, restless_walk_distance,
                 separator_trace, solve, solve_windowed, validate_restless_path)

FIG1_STEPS = ((0, 1, 2), (1, 3, 4), (2, 3, 4), (2, 5, 4), (5, 6, 6))


def as_triples(path):
    return tuple((e.u, e.v, e.t) for e in path.steps)


@pytest.mark.parametrize("backend", ["brute", "sieve"])
def test_fig1_yes_with_exact_witness(fig1, backend):
    res = solve(fig1, S, Z, 2, 5, 0.01, FinderConfig(backend=backend, seed=7))
    assert res.decision
    assert as_triples(res.witness) == FIG1_STEPS
    assert res.temporal_distance == 2 and res.ell == 3


@pytest.mark.parametrize("backend", ["brute", "sieve"])
def test_fig1_no_at_k4(fig1, backend):
    res = solve(fig1, S, Z, 2, 4, 0.01, FinderConfig(backend=backend, seed=7))
    assert not res.decision and res.witness is None


def test_fig1_table_value(fig1):
    dt = compute_distances(fig1, Z)
    dp = fill_table(fig1, dt, S, Z, 2, 5, FinderConfig(backend="brute"))
    assert dp.ell == 3
    assert dp.entries[VertexAppearance(Z, 6)] == 5
    # source rows are the only zero entries
    for app, value in dp.entries.items():
        assert (value == 0) == (app.v == S), app


def test_table_minimum_matches_oracle_shortest():
    for g, s, z, delta, k in random_instances(246, 200):
        dt = compute_distances(g, z)
        d = dt.source_distance(s)
        if d == INF or d > k or k >= g.vertex_count:
            continue
        dp = fill_table(g, dt, s, z, delta, k, FinderConfig(backend="brute"))
        got = min((dp.entries.get(VertexAppearance(z, t), INF)
                   for t in dt.appearance_times(z)), default=INF)
        want = oracles.shortest_restless_path(
            oracles.edge_triples(g), s, z, delta, g.vertex_count - 1)
        if want is None or want > k:
            assert got > k
        else:
            assert got == want, (s, z, delta, k)


def test_solve_agrees_with_oracle_brute_backend():
    for g, s, z, delta, k in random_instances(135, 300):
        res = solve(g, s, z, delta, k, 0.01, FinderConfig(backend="brute"))
        want = oracles.shortest_restless_path(
            oracles.edge_triples(g), s, z, delta, min(k, g.vertex_count - 1))
        assert res.decision == (want is not None)
        if res.decision:
            assert res.witness.length == want


def test_witnesses_validate_and_respect_budget():
    for g, s, z, delta, k in random_instances(7531, 150):
        res = solve(g, s, z, delta, k, 0.01, FinderConfig(backend="brute"))
        if not res.decision:
            continue
        path = validate_restless_path(g, res.witness.steps, s, z, delta)
        assert path.length <= min(k, g.vertex_count - 1)


def test_short_circuit_without_temporal_path():
    g = TemporalGraph.from_time_edges(4, 2, [TimeEdge(0, 1, 1), TimeEdge(2, 3, 1)])
    res = solve(g, 0, 3, 2, 3, 0.01, FinderConfig())
    assert not res.decision
    assert res.temporal_distance == INF and res.ell is None
    assert res.stats.areas_built == 0 and res.stats.finder_calls == 0


def test_short_circuit_when_distance_exceeds_budget():
    # temporal distance 3 > k=2
    g = TemporalGraph.from_time_edges(4, 3, [
        TimeEdge(0, 1, 1), TimeEdge(1, 2, 2), TimeEdge(2, 3, 3)])
    res = solve(g, 0, 3, 3, 2, 0.01, FinderConfig())
    assert not res.decision and res.stats.finder_calls == 0


def test_zero_slack_restless_shortest_chase():
    # the only temporal path has a gap of 2: restless iff delta >= 2
    g = TemporalGraph.from_time_edges(3, 3, [TimeEdge(0, 1, 1), TimeEdge(1, 2, 3)])
    no = solve(g, 0, 2, 1, 2, 0.01, FinderConfig(backend="brute"))
    assert no.ell == 0 and not no.decision
    yes = solve(g, 0, 2, 2, 2, 0.01, FinderConfig(backend="brute"))
    assert yes.ell == 0 and yes.decision and yes.witness.length == 2


def test_k_clamped_to_simple_path_bound(fig1):
    res = solve(fig1, S, Z, 2, 50, 0.01, FinderConfig(backend="brute"))
    assert res.k == 50 and res.k_effective == 6
    assert res.decision and res.witness.length == 5


def test_parameter_validation(fig1):
    cfg = FinderConfig()
    with pytest.raises(ValueError):
        solve(fig1, S, S, 2, 5, 0.01, cfg)
    with pytest.raises(ValueError):
        solve(fig1, S, 99, 2, 5, 0.01, cfg)
    with pytest.raises(ValueError):
        solve(fig1, S, Z, 0, 5, 0.01, cfg)
    with pytest.raises(ValueError):
        solve(fig1, S, Z, 2, 0, 0.01, cfg)
    with pytest.raises(ValueError):
        solve(fig1, S, Z, 2, 5, 0.0, cfg)


def test_subcall_budget_formula(fig1):
    res = solve(fig1, S, Z, 2, 5, 0.2, FinderConfig(backend="brute"))
    # ell = 3: ceil(5/3) = 2 chain links, 7 probes each, doubled
    assert res.subcall_error_prob == pytest.approx(0.2 / (2 * 2 * 7))


def test_reconstruct_base_case(fig1):
    dt = compute_distances(fig1, Z)
    dp = fill_table(fig1, dt, S, Z, 2, 5, FinderConfig(backend="brute"))
    assert reconstruct(dp, VertexAppearance(S, 1)) == ()


def test_reconstruct_matches_table_values():
    for g, s, z, delta, k in random_instances(9988, 120):
        dt = compute_distances(g, z)
        d = dt.source_distance(s)
        if d == INF or d > min(k, g.vertex_count - 1):
            continue
        dp = fill_table(g, dt, s, z, delta, min(k, g.vertex_count - 1),
                        FinderConfig(backend="brute"))
        for app, value in dp.entries.items():
            if value == INF or value == 0:
                continue
            steps = reconstruct(dp, app)
            assert len(steps) == value
            path = validate_restless_path(g, steps, s, app.v, delta)
            assert path.arrival <= app.t
            assert path.arrival >= app.t - delta or app.v == z


def test_pred_links_satisfy_window_conditions():
    for g, s, z, delta, k in random_instances(11, 150):
        dt = compute_distances(g, z)
        d = dt.source_distance(s)
        k_eff = min(k, g.vertex_count - 1)
        if d == INF or d > k_eff:
            continue
        dp = fill_table(g, dt, s, z, delta, k_eff, FinderConfig(backend="brute"))
        ell = dp.ell
        for app, (pred, steps) in dp.preds.items():
            if pred is None:
                continue
            assert pred.t <= app.t
            assert dt.entries[pred] > dt.entries[app] >= dt.entries[pred] - ell - 1
            assert 1 <= len(steps) <= 2 * ell + 1


def test_zone_structure_of_table_values():
    for g, s, z, delta, k in random_instances(86420, 120):
        dt = compute_distances(g, z)
        d_source = dt.source_distance(s)
        k_eff = min(k, g.vertex_count - 1)
        if d_source == INF or d_source > k_eff:
            continue
        dp = fill_table(g, dt, s, z, delta, k_eff, FinderConfig(backend="brute"))
        ell = dp.ell
        near_floor = d_source - ell
        for app, value in dp.entries.items():
            if value == INF:
                continue
            pred, steps = dp.preds[app]
            if app.v == s:
                assert value == 0 and pred is None and steps == ()
            elif dt.entries[app] >= near_floor:
                # near zone: a direct source connector of bounded length
                assert pred is None and 1 <= value == len(steps) <= 2 * ell
            else:
                # far zone: predecessor value plus the connector length
                assert pred is not None
                assert value == dp.entries[pred] + len(steps)


def test_separator_trace_fig1(fig1):
    dt = compute_distances(fig1, Z)
    path = validate_restless_path(
        fig1, [TimeEdge(*t) for t in FIG1_STEPS], S, Z, 2)
    trace = separator_trace(path, dt)
    assert trace.indices[-1] == path.length  # the target is always marked
    assert trace.d_values[-1] == 0
    # gaps between consecutive separators bounded by 2*ell + 1 (ell = 3)
    marks = (0, *trace.indices)
    assert all(b - a <= 7 for a, b in zip(marks, marks[1:]))


def test_separator_trace_single_step():
    g = TemporalGraph.from_time_edges(2, 1, [TimeEdge(0, 1, 1)])
    dt = compute_distances(g, 1)
    path = validate_restless_path(g, [TimeEdge(0, 1, 1)], 0, 1, 1)
    trace = separator_trace(path, dt)
    assert trace.indices == (0, 1)


def test_separator_windows_on_shortest_solutions():
    checked = 0
    for g, s, z, delta, k in random_instances(40, 250):
        triples = oracles.edge_triples(g)
        best = oracles.shortest_restless_path(triples, s, z, delta,
                                              g.vertex_count - 1)
        if best is None:
            continue
        dt = compute_distances(g, z)
        ell = best - dt.source_distance(s)
        assert ell >= 0
        for steps in oracles.enumerate_restless_paths(triples, s, z, delta, best):
            if len(steps) != best:
                continue
            path = validate_restless_path(
                g, [TimeEdge(*t) for t in steps], s, z, delta)
            trace = separator_trace(path, dt)
            marked = set(trace.indices)
            assert path.length in marked
            for start in range(0, path.length + 1):
                window = set(range(start, min(start + 2 * ell + 1, path.length + 1)))
                assert window & marked, (steps, trace, ell)
            checked += 1
    assert checked >= 30


def test_sieve_statistical_no_rate_on_fixed_yes_instance():
    # waiting bound forces the 3-hop route; one-sided misses only
    g = TemporalGraph.from_time_edges(4, 5, [
        TimeEdge(0, 1, 1), TimeEdge(1, 2, 3), TimeEdge(2, 3, 4), TimeEdge(1, 3, 5)])
    assert oracles.shortest_restless_path(
        oracles.edge_triples(g), 0, 3, 2, 3) == 3
    noes = 0
    for seed in range(200):
        res = solve(g, 0, 3, 2, 3, 0.2, FinderConfig(backend="sieve", seed=seed))
        if res.decision:
            assert as_triples(res.witness) == ((0, 1, 1), (1, 2, 3), (2, 3, 4))
        else:
            noes += 1
    assert noes <= 0.2 * 200 + 3 * (200 * 0.2 * 0.8) ** 0.5


def test_sieve_fixed_no_instance_never_yes(fig1):
    for seed in range(60):
        res = solve(fig1, S, Z, 2, 4, 0.3, FinderConfig(backend="sieve", seed=seed))
        assert not res.decision


def test_deterministic_witness_under_seed():
    for g, s, z, delta, k in random_instances(95, 40):
        cfg = FinderConfig(backend="sieve", seed=42)
        first = solve(g, s, z, delta, k, 0.01, cfg)
        second = solve(g, s, z, delta, k, 0.01, cfg)
        assert first.decision == second.decision
        if first.decision:
            assert as_triples(first.witness) == as_triples(second.witness)


def test_windowed_solve_agrees_with_plain():
    for g, s, z, delta, k in random_instances(5150, 80):
        plain = solve(g, s, z, delta, k, 0.01, FinderConfig(backend="brute"))
        windowed = solve_windowed(g, s, z, delta, k, 0.01,
                                  FinderConfig(backend="brute"))
        assert plain.decision == windowed.decision
        if windowed.decision:
            path = validate_restless_path(g, windowed.witness.steps, s, z, delta)
            assert path.length <= min(k, g.vertex_count - 1)


def test_decision_monotone_in_budget_and_waiting_bound():
    cfg = FinderConfig(backend="brute")
    for g, s, z, _delta, _k in random_instances(2718, 80, max_vertices=7):
        by_k = [solve(g, s, z, 2, k, 0.01, cfg).decision for k in (1, 2, 3, 4, 5)]
        assert not any(a and not b for a, b in zip(by_k, by_k[1:])), by_k
        by_d = [solve(g, s, z, d, 4, 0.01, cfg).decision for d in (1, 2, 3)]
        assert not any(a and not b for a, b in zip(by_d, by_d[1:])), by_d


def test_arrival_below_corridor_window_is_found():
    # 3-5@1, 5-1@2, 1-0@3, 0-2@4: vertex 5 arrives at stamp 1, where
    # d(5, 1) = 2 lies below the source-side corridor of (1, 3), and departs
    # at stamp 2, where d(5, 2) = 3 lies inside it; the arrival edge must
    # still be kept
    g = TemporalGraph.from_time_edges(
        6, 5, [(3, 5, 1), (4, 5, 1), (1, 5, 2), (0, 1, 3), (0, 2, 4), (2, 4, 5)])
    assert oracles.shortest_restless_path(oracles.edge_triples(g), 3, 2, 1, 5) == 4
    results = [solve(g, 3, 2, 1, 4, 0.01, FinderConfig(backend=backend, seed=5))
               for backend in ("brute", "sieve", "auto")]
    results.append(solve_windowed(g, 3, 2, 1, 4, 0.01, FinderConfig(backend="brute")))
    for res in results:
        assert res.decision
        assert validate_restless_path(g, res.witness.steps, 3, 2, 1).length == 4


def test_resources_independent_of_lifetime_header(monkeypatch):
    import tracemalloc

    import rtp.solver
    text = "3 1000000\n0 1 1\n1 2 3\n"
    inner = rtp.solver.solve
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)

    monkeypatch.setattr(rtp.solver, "solve", counted)
    tracemalloc.start()
    try:
        g = parse_temporal_graph(text)
        assert g.size() == 3 + 2 + 1_000_000 - 2
        assert restless_walk_distance(g, 0, 2, 2) == 2
        res = solve_windowed(g, 0, 2, 2, 2, 0.01, FinderConfig(backend="brute"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.decision and res.witness.length == 2
    assert peak < 1_000_000, peak
    assert 1 <= len(calls) <= len(compute_distances(g, 0).appearance_times(0))


def test_solve_on_edgeless_graph():
    g = TemporalGraph(3, 2, [[], []])
    res = solve(g, 0, 2, 1, 2, 0.01, FinderConfig())
    assert not res.decision and res.temporal_distance == INF


def test_stats_are_populated(fig1):
    res = solve(fig1, S, Z, 2, 5, 0.01, FinderConfig(backend="sieve", seed=1))
    assert res.stats.areas_built > 0
    assert res.stats.finder_calls > 0
    assert res.stats.finder_ops > 0
    assert res.stats.table_entries == 15
    assert res.stats.elapsed_seconds > 0


def test_json_dict_shape(fig1):
    res = solve(fig1, S, Z, 2, 5, 0.01, FinderConfig(backend="brute"))
    payload = res.to_json_dict()
    assert payload["decision"] == "yes"
    assert payload["k"] == 5
    assert payload["temporal_distance"] == 2
    assert payload["ell"] == 3
    assert [tuple(step.values()) for step in payload["witness"]] == list(FIG1_STEPS)
    assert set(payload["stats"]) == {"areas_built", "finder_calls", "finder_ops",
                                     "table_entries", "elapsed_seconds"}
