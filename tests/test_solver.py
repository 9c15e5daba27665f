from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (FIG1_TEXT, S, A, B, C, D, E, Z, corridor, random_instances,
                      unpruned_fill, without_walk_bracket)
from rtp import (INF, FinderConfig, SolveStats, TemporalGraph, TimeEdge,
                 VertexAppearance, area_spec, compute_distances,
                 fill_table, parse_temporal_graph, random_temporal_graph,
                 reconstruct, restless_walk_distance, solve,
                 solve_windowed, validate_restless_path)
from rtp.distances import walk_hops
from rtp.path_finder import incident_index

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
        v, _t = app
        assert (value == 0) == (v == S), app


def test_table_minimum_matches_oracle_shortest():
    for g, s, z, delta, k in random_instances(246, 200):
        dt = compute_distances(g, z)
        d = dt.source_distance(s)
        if d == INF or d > k or k >= g.vertex_count:
            continue
        dp = fill_table(g, dt, s, z, delta, k, FinderConfig(backend="brute"))
        got = min((dp.entries.get(VertexAppearance(z, t), INF)
                   for t in oracles.appearance_times(dt, z)), default=INF)
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


@pytest.mark.parametrize("entry", [solve, solve_windowed])
def test_parameter_validation(fig1, entry):
    cfg = FinderConfig()
    with pytest.raises(ValueError):
        entry(fig1, S, S, 2, 5, 0.01, cfg)
    with pytest.raises(ValueError):
        entry(fig1, S, 99, 2, 5, 0.01, cfg)
    with pytest.raises(ValueError):
        entry(fig1, S, Z, 0, 5, 0.01, cfg)
    with pytest.raises(ValueError):
        entry(fig1, S, Z, 2, 0, 0.01, cfg)
    with pytest.raises(ValueError):
        entry(fig1, S, Z, 2, 5, 0.0, cfg)


def test_subcall_budget_formula(fig1):
    res = solve(fig1, S, Z, 2, 5, 0.2, FinderConfig(backend="brute"))
    # ell = 3: ceil(5/3) = 2 chain links, 7 probes each, doubled
    assert res.subcall_error_prob == pytest.approx(0.2 / (2 * 2 * 7))


def test_budget_split_that_underflows_is_rejected(fig1):
    # 5e-324 is a valid p, but every share of it would round to 0; a clamped
    # share would break the bound, so the query is refused, naming the split
    with pytest.raises(ValueError, match=r"p=5e-324 .* p/\(2\*chain\*\(2\*ell\+1\)\) = p/28"):
        solve(fig1, S, Z, 2, 5, 5e-324, FinderConfig(backend="brute"))
    with pytest.raises(ValueError, match=r"p=5e-324 .* p/len\(departures\) = p/2"):
        solve_windowed(fig1, S, Z, 2, 5, 5e-324, FinderConfig(backend="brute"))
    res = solve(fig1, S, Z, 2, 5, 1e-320, FinderConfig(backend="brute"))
    assert res.decision and 0.0 < res.subcall_error_prob < 1e-320


def test_budget_covers_every_link_of_the_witness_chain():
    # a false no needs a false no at one relevant probe per link of a
    # solution's chain, so the reconstructed chain's links, one share of p
    # each, must fit in p, also when they outnumber ceil(k_eff/ell)
    p = 0.05
    rng = random.Random(31)
    instances = random_instances(97, 300, max_vertices=10, max_lifetime=10, max_k=7)
    for _ in range(60):  # long chronological paths, a little noise: long chains
        n = rng.randint(5, 10)
        edges = {(i, i + 1, i + 1) for i in range(n)}
        edges |= {(*sorted(rng.sample(range(n + 4), 2)), rng.randint(1, n))
                  for _ in range(n // 3)}
        g = TemporalGraph.from_time_edges(n + 4, n, edges)
        instances.append((g, 0, n, rng.randint(1, 2), n + rng.randint(1, 3)))
    yes = longer = 0
    for i, (g, s, z, delta, k) in enumerate(instances):
        cfg = FinderConfig(backend="brute", seed=i)
        res = solve(g, s, z, delta, k, p, cfg)
        if not res.decision:
            continue
        dt = compute_distances(g, z)
        dp = fill_table(g, dt, s, z, delta, res.k_effective,
                        dataclasses.replace(cfg, error_prob=res.subcall_error_prob))
        end = min((VertexAppearance(z, t) for t in oracles.appearance_times(dt, z)),
                  key=lambda app: dp.entries.get(app, INF))
        assert reconstruct(dp, end) == res.witness.steps
        links = 0
        app = end
        while app is not None:
            app, steps = dp.preds[app]
            links += bool(steps)  # a source appearance closes the chain
        assert 1 <= links <= res.k_effective
        assert links * res.subcall_error_prob <= p
        yes += 1
        longer += links > -(-res.k_effective // max(1, res.ell))
    assert yes >= 100 and longer >= 5, (yes, longer)


def test_windowed_budget_covers_its_windows(monkeypatch):
    # one share per window solved; each window's table path splits it again
    import rtp.solver
    inner = rtp.solver._fill_share
    results = []  # (window's share, its split over its chain), per window solved

    def recorded(share, k_eff, d_window):
        results.append((share, inner(share, k_eff, d_window)))
        return results[-1][1]

    monkeypatch.setattr(rtp.solver, "_fill_share", recorded)
    p = 0.05
    many = 0
    # windows over budget are rejected before their solve, so few queries
    # solve two or more: enough instances to meet the floor
    for g, s, z, delta, k in random_instances(5, 1000, max_lifetime=12, deltas=(1, 2)):
        results.clear()
        res = solve_windowed(g, s, z, delta, k, p, FinderConfig(backend="brute"))
        for share, split in results:
            assert share == res.subcall_error_prob
            assert split <= share
        assert sum(share for share, _ in results) <= p * (1 + 1e-12)
        # one share per departure, solved or rejected
        dt = compute_distances(g, z)
        departures = [t0 for t0 in oracles.appearance_times(dt, s)
                      if dt.get(s, t0) <= res.k_effective]
        assert len(results) <= len(departures)
        if departures:
            assert len(departures) * res.subcall_error_prob <= p * (1 + 1e-12)
        many += len(results) >= 2
    assert many >= 5, many


def solve_every_window(g, s, z, delta, k, p, cfg):
    """``solve_windowed`` without its window gate: every departure window
    gets its graph and a solve. Returns (witness, subcall_error_prob,
    summed stats, windows whose solve stopped at d_source > k_eff)."""
    dt = compute_distances(g, z)
    k_eff = min(k, max(1, g.vertex_count - 1))
    departures = [t0 for t0 in oracles.appearance_times(dt, s) if dt.get(s, t0) <= k_eff]
    sub_p = p / len(departures) if departures else None
    stats = SolveStats()
    witness = None
    stopped = 0
    for t0 in departures:
        window = TemporalGraph.from_time_edges(
            g.vertex_count, g.lifetime,
            g.edges_between(t0, t0 + (k - 1) * delta + 1), g.aliases)
        res = solve(window, s, z, delta, k, sub_p, cfg)
        stopped += res.ell is None
        for f in dataclasses.fields(SolveStats):
            setattr(stats, f.name, getattr(stats, f.name) + getattr(res.stats, f.name))
        if res.decision:
            witness = res.witness
            break
    return witness, sub_p, stats, stopped


@pytest.mark.parametrize("backend", ["brute", "sieve"])
def test_window_gate_changes_no_result(backend, no_walk_bracket, no_prune):
    # a rejected window's solve stops before its first probe, so skipping
    # it leaves the decision, witness, split and every counter as they were;
    # without the walk bracket every other window reaches the table path;
    # and unpruned, a window solved alone fills every entry, as the
    # windowed solve's own windows do
    counters = [f.name for f in dataclasses.fields(SolveStats) if f.name != "elapsed_seconds"]
    yes = stopped = 0
    # long sparse lifetimes, where a window's horizon often cuts d(s, t0)
    for g, s, z, delta, k in random_instances(6060, 300, max_vertices=12,
                                              max_lifetime=60, deltas=(1, 2)):
        cfg = FinderConfig(backend=backend, seed=17)
        got = solve_windowed(g, s, z, delta, k, 0.05, cfg)
        witness, sub_p, stats, skipped = solve_every_window(
            g, s, z, delta, k, 0.05, cfg)
        assert got.decision == (witness is not None)
        if witness is not None:
            assert got.witness.steps == witness.steps
        assert got.subcall_error_prob == sub_p
        assert [getattr(got.stats, c) for c in counters] == \
            [getattr(stats, c) for c in counters], (g, s, z, delta, k)
        yes += got.decision
        stopped += skipped
    assert yes >= 50 and stopped >= 100, (yes, stopped)


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
            v, t = app
            steps = reconstruct(dp, app)
            assert len(steps) == value
            path = validate_restless_path(g, steps, s, v, delta)
            assert path.arrival <= t
            assert path.arrival >= t - delta or v == z


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
            # chained corridors may only share the chaining vertex
            source_side = corridor(g, dt, area_spec(dt, None, pred, delta))
            hop = corridor(g, dt, area_spec(dt, pred, app, delta))
            shared = (oracles.endpoints(source_side.time_edges)
                      & oracles.endpoints(hop.time_edges))
            assert shared <= {pred.v}, (pred, app)


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
            v, _t = app
            if v == s:
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
    trace = oracles.separator_trace(path, dt)
    assert trace.indices[-1] == path.length  # the target is always marked
    assert trace.d_values[-1] == 0
    # gaps between consecutive separators bounded by 2*ell + 1 (ell = 3)
    marks = (0, *trace.indices)
    assert all(b - a <= 7 for a, b in zip(marks, marks[1:]))


def test_separator_trace_single_step():
    g = TemporalGraph.from_time_edges(2, 1, [TimeEdge(0, 1, 1)])
    dt = compute_distances(g, 1)
    path = validate_restless_path(g, [TimeEdge(0, 1, 1)], 0, 1, 1)
    trace = oracles.separator_trace(path, dt)
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
            trace = oracles.separator_trace(path, dt)
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


@st.composite
def slack_queries(draw, detour=False):
    """(graph, s, z, delta, ell, seed): a graph of 5 to 9 vertices over 3
    to 10 stamps with a temporal s-z path, queried at slack 3 or 4.
    Sparse layers at delta 1 give restless nos, dense ones long probes for
    the sieve. With detour, a restless walk s, a, b, a, c, z that must
    wait at b is planted, one time-edge every delta stamps (s-a, a-b, a-b,
    then a-c and c-z together), so the screened walks revisit a and the
    sieve's certificate cannot answer."""
    nv = draw(st.integers(5, 9))
    lifetime = draw(st.integers(7 if detour else 3, 10))
    per_layer = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    layers = [draw(st.lists(st.sampled_from(pairs), unique=True, max_size=per_layer))
              for _ in range(lifetime)]
    s, z = draw(st.lists(st.integers(0, nv - 1), min_size=2, max_size=2, unique=True))
    delta = draw(st.integers(1, 2))
    if detour:
        a, b, c = draw(st.lists(st.sampled_from([v for v in range(nv) if v not in (s, z)]),
                                min_size=3, max_size=3, unique=True))
        t = draw(st.integers(0, lifetime - 1 - 3 * delta))
        walk = [(t, s, a), (t + delta, a, b), (t + 2 * delta, a, b),
                (t + 3 * delta, a, c), (t + 3 * delta, c, z)]
        for i, x, y in walk:
            layers[i] = sorted({*layers[i], (min(x, y), max(x, y))})
    return (TemporalGraph(nv, lifetime, layers), s, z, delta,
            draw(st.integers(3, 4)), draw(st.integers(0, 2**64 - 1)))


def sieve_differential(queries) -> dict:
    """Plain and windowed solves on the sieve backend against the path
    oracle over 200 queries: a yes needs an oracle path within k and a
    valid witness, and a no on an oracle yes is a miss, allowed at the
    configured rate. Returns the yes, miss and summed sieve trial counts."""
    p = 0.01
    seen = {"yes": 0, "misses": 0, "trials": 0}

    @settings(max_examples=200, deadline=None)
    @given(queries)
    def check(query):
        g, s, z, delta, ell, seed = query
        d = compute_distances(g, z).source_distance(s)
        assume(d < INF)
        k = d + ell
        want = oracles.shortest_restless_path(oracles.edge_triples(g), s, z, delta, k)
        cfg = FinderConfig(backend="sieve", seed=seed)
        for runner in (solve, solve_windowed):
            res = runner(g, s, z, delta, k, p, cfg)
            if res.decision:
                assert want is not None and want <= k, (query, runner)
                path = validate_restless_path(g, res.witness.steps, s, z, delta)
                assert want <= path.length <= k, (query, runner)
            seen["yes"] += want is not None
            seen["misses"] += want is not None and not res.decision
            seen["trials"] += res.stats.sieve_trials

    check()
    yes = seen["yes"]
    assert yes >= 100, seen
    assert seen["misses"] <= p * yes + 3 * (p * yes) ** 0.5 + 1, seen
    return seen


def test_sieve_differential_at_slack_three_and_four():
    sieve_differential(slack_queries())


def test_sieve_differential_past_the_certificate():
    # the screen and the certificate answer almost every probe of plain
    # queries; planted detours make the randomized decision run
    seen = sieve_differential(slack_queries(detour=True))
    assert seen["trials"] > 0, seen


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


def test_windowed_distance_and_slack_match_the_table():
    # temporal_distance and ell come from the bounded sweep's first value,
    # or, when no departure is within k_eff (every k below d), from the
    # forward fallback; the bench pool has k = d + ell and never takes it
    below = 0
    for g, s, z, delta, k in random_instances(7070, 600, max_vertices=10,
                                              max_lifetime=20):
        d = compute_distances(g, z).source_distance(s)
        for budget in {k, *range(1, d)} if d < INF else {k}:
            res = solve_windowed(g, s, z, delta, budget, 0.01,
                                 FinderConfig(backend="brute"))
            assert res.temporal_distance == d, (g.time_edges, s, z, budget)
            assert res.ell == (res.k_effective - d if d <= res.k_effective else None)
            below += res.k_effective < d < INF
    assert below >= 100, below


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
    inner = rtp.solver._table_witness
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(rtp.solver, "_table_witness", counted)
    tracemalloc.start()
    try:
        g = parse_temporal_graph(text)
        assert len(g.time_edges) == 2 and g.lifetime == 1_000_000
        assert restless_walk_distance(g, 0, 2, 2) == 2
        res = solve_windowed(g, 0, 2, 2, 2, 0.01, FinderConfig(backend="brute"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.decision and res.witness.length == 2
    assert peak < 1_000_000, peak
    assert 1 <= len(calls) <= len(oracles.appearance_times(compute_distances(g, 0), 0))


@pytest.mark.parametrize("backend", ["brute", "sieve", "auto"])
@pytest.mark.parametrize("entry", [solve, solve_windowed])
def test_finder_calls_independent_of_vertex_count_header(entry, backend):
    # four vertices carry edges, and the shortest restless walk s-a-b-a-z
    # revisits a, so the table path runs with ell = n - 3: each link probes
    # at most its corridor's vertex count minus one, not 2*ell, lengths
    counted = []
    for n in (100, 1000):
        g = parse_temporal_graph(f"{n} 4\n0 1 1\n1 2 2\n1 2 3\n1 3 4\n")
        res = entry(g, 0, 3, 1, n, 0.01, FinderConfig(backend=backend, seed=1))
        assert not res.decision and res.ell == n - 3
        assert 1 <= res.stats.finder_calls <= 5
        counted.append(dataclasses.replace(res.stats, elapsed_seconds=0.0))
    assert counted[0] == counted[1]


def test_solve_on_edgeless_graph():
    g = TemporalGraph(3, 2, [[], []])
    res = solve(g, 0, 2, 1, 2, 0.01, FinderConfig())
    assert not res.decision and res.temporal_distance == INF


def test_temporal_distance_is_the_tables_source_distance():
    # solve takes d(s) from the walk search, before and without any table
    cfg = FinderConfig(backend="brute")
    for g, s, z, delta, k in random_instances(20240501, 1000):
        res = solve(g, s, z, delta, k, 0.01, cfg)
        assert res.temporal_distance == compute_distances(g, z).source_distance(s), \
            (g.time_edges, s, z)
    edgeless = TemporalGraph(3, 2, [[], []])
    # z has an appearance, but its only edge is earlier than s's
    unreachable = TemporalGraph.from_time_edges(3, 2, [TimeEdge(0, 1, 2), TimeEdge(1, 2, 1)])
    for g in (edgeless, unreachable):
        res = solve(g, 0, 2, 1, 2, 0.01, cfg)
        assert res.temporal_distance == compute_distances(g, 2).source_distance(0) == INF
        assert not res.decision and res.ell is None


@pytest.mark.parametrize("backend", ["brute", "sieve"])
def test_walk_bracket_decides_only_nos_the_table_path_shares(backend):
    # wherever the shortest restless walk is over budget, the table path
    # answers no too, with the same split; solve answers it with no work
    counters = [f.name for f in dataclasses.fields(SolveStats) if f.name != "elapsed_seconds"]
    decided = 0
    for i, (g, s, z, delta, k) in enumerate(random_instances(20240501, 1000)):
        cfg = FinderConfig(backend=backend, seed=i)
        res = solve(g, s, z, delta, k, 0.01, cfg)
        if res.ell is None or restless_walk_distance(g, s, z, delta) <= res.k_effective:
            continue
        with without_walk_bracket():
            table = solve(g, s, z, delta, k, 0.01, cfg)
        assert not res.decision and not table.decision, (g.time_edges, s, z, delta, k)
        assert res.subcall_error_prob == table.subcall_error_prob
        assert res.temporal_distance == table.temporal_distance and res.ell == table.ell
        assert all(getattr(res.stats, c) == 0 for c in counters)
        assert table.stats.table_entries > 0
        decided += 1
    assert decided >= 8, decided


def test_fill_builds_only_specs_area_spec_accepts(monkeypatch):
    # the fill builds each link's AreaSpec with no check of its own;
    # area_spec, the one checker of a corner pair, accepts every one as is
    import rtp.solver
    inner = rtp.solver.keep_rule
    links = 0

    def checked(dt, incident, spec):
        nonlocal links
        assert area_spec(dt, spec.lower, spec.upper, spec.delta) == spec, spec
        links += 1
        return inner(dt, incident, spec)

    monkeypatch.setattr(rtp.solver, "keep_rule", checked)
    for i, (g, s, z, delta, k) in enumerate(random_instances(20240501, 300)):
        for backend in ("brute", "sieve", "auto"):
            cfg = FinderConfig(backend=backend, seed=i)
            with without_walk_bracket():
                solve(g, s, z, delta, k, 0.01, cfg)
            solve_windowed(g, s, z, delta, k, 0.01, cfg)
    assert links >= 3000, links


def test_walk_decided_no_builds_no_table(fig1, monkeypatch):
    # fig1's shortest restless walk has length 5, so k = 4 is an exact no
    import rtp.solver
    assert restless_walk_distance(fig1, S, Z, 2) == 5

    def refused(*args):
        raise AssertionError("a walk-decided no built a distance table")

    with without_walk_bracket():
        table = solve(fig1, S, Z, 2, 4, 0.01, FinderConfig(backend="brute"))
    monkeypatch.setattr(rtp.solver, "compute_distances", refused)
    counters = [f.name for f in dataclasses.fields(SolveStats) if f.name != "elapsed_seconds"]
    for runner in (solve, solve_windowed):
        for backend in ("brute", "sieve", "auto"):
            res = runner(fig1, S, Z, 2, 4, 0.01, FinderConfig(backend=backend, seed=4))
            assert not res.decision and res.witness is None
            assert (res.temporal_distance, res.ell) == (2, 2)
            assert all(getattr(res.stats, c) == 0 for c in counters), res.stats
    assert res.subcall_error_prob == 0.01  # one departure within k = 4: stamp 1
    assert solve(fig1, S, Z, 2, 4, 0.01, FinderConfig()).subcall_error_prob == \
        table.subcall_error_prob == pytest.approx(0.01 / (2 * 2 * 5))


def test_pruned_table_path_keeps_decisions_and_brute_witnesses():
    # the forward hop bound skips only entries that no chain within budget
    # uses: with every query sent to the table path, the pruned and the
    # unpruned fill answer alike, on the acceptance corpus and on larger
    # graphs, and the pruned one runs fewer searches
    cfg = FinderConfig(backend="brute")
    queries = random_instances(20240501, 1000) + random_instances(
        2626, 300, max_vertices=12, max_lifetime=30)
    yes = pruned_calls = full_calls = 0
    for g, s, z, delta, k in queries:
        with without_walk_bracket():
            pruned = solve(g, s, z, delta, k, 0.01, cfg)
            with unpruned_fill():
                full = solve(g, s, z, delta, k, 0.01, cfg)
        assert pruned.decision == full.decision, (g.time_edges, s, z, delta, k)
        if full.decision:
            assert pruned.witness.steps == full.witness.steps
        assert pruned.subcall_error_prob == full.subcall_error_prob
        assert pruned.stats.table_entries == full.stats.table_entries
        yes += full.decision
        pruned_calls += pruned.stats.finder_calls
        full_calls += full.stats.finder_calls
    assert yes >= 300 and pruned_calls < full_calls, (yes, pruned_calls, full_calls)


def test_prune_skips_only_entries_out_of_budget():
    # an entry whose fewest walk hops in, plus its distance, exceed the
    # budget is INF in the pruned fill and, unpruned, INF or out of budget
    # too; every entry within budget keeps its value and its link
    import rtp.solver
    cfg = FinderConfig(backend="brute")
    ruled_out = reached = kept = 0
    for g, s, z, delta, k in random_instances(2626, 300, max_vertices=12, max_lifetime=30):
        dt = compute_distances(g, z)
        k_eff = min(k, g.vertex_count - 1)
        if dt.source_distance(s) > k_eff:
            continue
        full = fill_table(g, dt, s, z, delta, k_eff, cfg)
        incident = incident_index(g.time_edges)
        record = {}
        walk_hops(incident, s, z, delta, 1, INF, k_eff, record)
        pruned = rtp.solver._fill(g, dt, incident, s, delta, k_eff, cfg, SolveStats(), record)
        hops = oracles.walk_state_hops(oracles.edge_triples(g), s, z, delta, 1, INF, k_eff)
        for app, d in dt.entries.items():
            u, t_up = app
            if u == s:
                continue
            value = full.entries[app]
            f = min((h for (v, t), h in hops.items()
                     if v == u and t_up - delta <= t <= t_up), default=INF)
            if f + d > k_eff:
                assert value == INF or value + d > k_eff, (g.time_edges, s, z, delta, k, app)
                assert pruned.entries[app] == INF
                ruled_out += d < INF
                reached += value < INF
            if value + d <= k_eff:
                assert pruned.entries[app] == value, (g.time_edges, s, z, delta, k, app)
                assert pruned.preds[app] == full.preds[app]
                kept += 1
    assert ruled_out >= 2000 and reached >= 20 and kept >= 1000, (ruled_out, reached, kept)


def test_pruned_fill_visits_exactly_the_entries_within_budget(monkeypatch, no_walk_bracket):
    # with every query sent to the table path, the pruned fill runs its
    # link loop for the source's appearances and for exactly the entries a
    # scan of the whole distance table finds under the forward bound (the
    # fewest walk hops into u within [t - delta, t], by the per-state
    # search, plus d(u, t), at most k_eff); every other entry is INF with
    # no link, and table_entries still counts every entry
    import rtp.solver
    fill, within = rtp.solver._fill, rtp.solver._within_budget
    calls = []

    def recorded_fill(*args):
        calls.append({})
        calls[-1]["table"] = fill(*args)
        return calls[-1]["table"]

    monkeypatch.setattr(rtp.solver, "_fill", recorded_fill)
    monkeypatch.setattr(rtp.solver, "_within_budget",
                        lambda *args: calls[-1].setdefault("kept", within(*args)))
    cfg = FinderConfig(backend="brute")
    visited = total = 0
    for g, s, z, delta, k in random_instances(20240501, 1000) + random_instances(
            515, 300, max_vertices=10, max_lifetime=20):
        calls.clear()
        stats = solve(g, s, z, delta, k, 0.01, cfg).stats
        if not calls:  # temporal distance over the budget: no table
            continue
        (call,) = calls
        k_eff = min(k, g.vertex_count - 1)
        dt = compute_distances(g, z)
        hops = {}
        for (v, t), h in oracles.walk_state_hops(oracles.edge_triples(g), s, z, delta,
                                                 1, INF, k_eff).items():
            hops.setdefault(v, []).append((t, h))
        source = {(v, t) for v, t in dt.entries if v == s}
        within_budget = {(u, t_up) for (u, t_up), d in dt.entries.items() if u != s and min(
            (h for t, h in hops.get(u, ()) if t_up - delta <= t <= t_up),
            default=INF) + d <= k_eff}
        kept = [app for app, _ in call["kept"]]
        assert len(kept) == len(set(kept)) and set(kept) == within_budget, \
            (g.time_edges, s, z, delta, k)
        assert all(d == dt.entries[app] for app, d in call["kept"])
        table = call["table"]
        assert table.entries.keys() == dt.entries.keys()
        assert stats.table_entries == len(dt.entries)
        assert stats.entries_visited == len(source) + len(within_budget)
        for app in source:
            assert table.entries[app] == 0 and table.preds[app] == (None, ())
        for app in dt.entries.keys() - source - within_budget:
            assert table.entries[app] == INF and app not in table.preds, app
        visited += stats.entries_visited
        total += stats.table_entries
    assert total >= 10000 and total - visited >= 4000, (visited, total)


def test_stats_are_populated(fig1):
    res = solve(fig1, S, Z, 2, 5, 0.01, FinderConfig(backend="sieve", seed=1))
    assert res.stats.areas_built > 0
    assert res.stats.finder_calls > 0
    assert res.stats.sieve_ops >= 1
    assert res.stats.sieve_trials >= 1
    assert res.stats.extraction_decisions >= 1
    assert res.stats.table_entries == 15
    assert res.stats.elapsed_seconds > 0


def test_fill_table_rejects_a_target_other_than_the_tables(fig1):
    dt = compute_distances(fig1, Z)
    with pytest.raises(ValueError, match="table's target"):
        fill_table(fig1, dt, S, 3, 2, 5, FinderConfig(backend="brute"))


def test_fill_table_rejects_source_equal_to_target(fig1):
    dt = compute_distances(fig1, Z)
    with pytest.raises(ValueError, match="must differ"):
        fill_table(fig1, dt, Z, Z, 2, 5, FinderConfig(backend="brute"))


@pytest.mark.parametrize("delta", [-3, 0])
def test_fill_table_rejects_delta_below_one(fig1, delta):
    # unchecked, a negative delta fills a table holding only the source's
    # entries, and 0 raises only where some link builds its corridor's spec
    dt = compute_distances(fig1, Z)
    with pytest.raises(ValueError, match="delta must be at least 1"):
        fill_table(fig1, dt, S, Z, delta, 5, FinderConfig(backend="brute"))


def test_one_incident_index_per_solve(monkeypatch):
    # a live graph's index is built once: the walk bracket's index is the
    # one the distance table and the fill read, and later entry points on
    # the same graph build none. Builds are counted where they happen.
    import rtp.path_finder
    import rtp.solver
    build, fill = rtp.path_finder.incident_index, rtp.solver._fill
    built, read = [], []

    def counted(edges):
        built.append(build(edges))
        return built[-1]

    def reading(g, dt, incident, *args):
        read.append(incident)
        return fill(g, dt, incident, *args)

    monkeypatch.setattr(rtp.path_finder, "incident_index", counted)
    monkeypatch.setattr(rtp.solver, "_fill", reading)
    g = parse_temporal_graph(FIG1_TEXT)  # a graph no other test has indexed
    res = solve(g, S, Z, 2, 5, 0.01, FinderConfig(backend="brute"))
    assert res.decision and res.stats.table_entries == 15
    assert len(built) == 1 and read[0] is built[0]
    fill_table(g, compute_distances(g, Z), S, Z, 2, 5, FinderConfig(backend="brute"))
    assert restless_walk_distance(g, S, Z, 2) == 5
    assert len(built) == 1 and len(read) == 2 and read[1] is built[0]
    # the same text parsed again is an equal but distinct graph
    again = parse_temporal_graph(FIG1_TEXT)
    assert again == g and again is not g
    assert compute_distances(again, Z) == compute_distances(g, Z)
    assert len(built) == 3 and built[1] is not built[0] and built[1] == built[0]


def test_fill_table_stats_accumulate_over_calls(fig1):
    dt = compute_distances(fig1, Z)
    stats = SolveStats()
    for _ in range(2):
        fill_table(fig1, dt, S, Z, 2, 5, FinderConfig(backend="brute"), stats=stats)
    # brute probes search their corridors in place, so none is built, and
    # each link that holds both ends counts its one search
    # an unpruned fill visits every entry
    assert (stats.finder_calls, stats.areas_built, stats.table_entries,
            stats.entries_visited) == (18, 0, 30, 30)


def test_corridors_are_built_only_where_both_ends_fit(monkeypatch, no_walk_bracket,
                                                     no_prune):
    # the unpruned table fill asks for 1033 corridors here, all on the source side,
    # and most cannot hold both ends of their search. Each link meets one
    # first check, the source filter, and the 128 it admits build their
    # rule, which the end check asks about both ends; 97 hold them. So one
    # bisect rejects most links before their rule is built. Skipping the
    # rest leaves every probe in place, and every probe is short enough
    # for brute, which builds no corridor. Each link that holds both ends
    # runs one search, and counts it
    import rtp.solver
    sources, held = [], []

    def counted(*args):
        admits = inner_source(*args)
        return lambda *link: sources.append(admits(*link)) or sources[-1]

    inner_source, inner_ends = rtp.solver.source_admission, rtp.solver.holds_ends
    monkeypatch.setattr(rtp.solver, "source_admission", counted)
    monkeypatch.setattr(rtp.solver, "holds_ends", lambda incident, spec, *rest: held.append(
        (spec.lower, inner_ends(incident, spec, *rest))) or held[-1][1])
    g = random_temporal_graph(120, 120, 7.5, 120)
    res = solve(g, 65, 31, 2, 4, 0.01, FinderConfig())
    far = [lower for lower, _ in held if lower is not None]
    assert len(sources) + len(far) == 1033
    assert sum(sources) == len(held) - len(far) == 128
    assert res.stats.finder_calls == sum(ok for _, ok in held) == 97
    assert res.stats.areas_built == 0


def test_keep_reads_arrivals_from_pairs_not_stamps(monkeypatch, no_walk_bracket, no_prune):
    # stamps far apart with a waiting bound that spans most of them: an
    # arrival check that looks up every stamp of its waiting window makes
    # over a million table lookups here, one over the arriving vertex's
    # pairs about 150
    import rtp.solver
    lookups = [0]

    class Counted(dict):
        def get(self, key, default=None):
            lookups[0] += 1
            return super().get(key, default)

        def __getitem__(self, key):
            lookups[0] += 1
            return super().__getitem__(key)

    inner = rtp.solver.compute_distances

    def counted(*args):
        dt = inner(*args)
        dt.entries = Counted(dt.entries)
        return dt

    monkeypatch.setattr(rtp.solver, "compute_distances", counted)
    edges = [TimeEdge(1, 2, 94), TimeEdge(1, 2, 7722), TimeEdge(1, 2, 30530),
             TimeEdge(0, 1, 30530), TimeEdge(0, 1, 54866), TimeEdge(2, 3, 159848),
             TimeEdge(0, 3, 159848)]
    g = TemporalGraph.from_time_edges(4, 200_000, edges)
    res = solve(g, 1, 3, 100_000, 3, 0.01, FinderConfig(backend="brute"))
    assert (res.decision, res.temporal_distance, res.stats.finder_calls) == (False, 2, 9)
    assert lookups[0] <= 1_000, lookups


def test_corridor_edges_sum_built_corridors(monkeypatch):
    import rtp.solver
    inner = rtp.solver.area_graph
    sizes = []

    def recorded(*args):
        area = inner(*args)
        sizes.append(len(area.time_edges))
        return area

    monkeypatch.setattr(rtp.solver, "area_graph", recorded)
    total = 0
    for g, s, z, delta, k in random_instances(8, 40, max_lifetime=12):
        sizes.clear()
        res = solve(g, s, z, delta, k, 0.01, FinderConfig(backend="sieve", seed=8))
        assert res.stats.areas_built == len(sizes)
        assert res.stats.corridor_edges == sum(sizes)
        total += res.stats.corridor_edges
    assert total > 0


@pytest.mark.parametrize("backend,threshold", [("brute", 7), ("sieve", 7), ("auto", 3)])
def test_only_probes_that_may_reach_the_sieve_leave_the_index(backend, threshold,
                                                             monkeypatch, auto_first_sieve):
    import rtp.solver
    from rtp.path_finder import first_sieve_length
    inner = rtp.solver.find_exact_restless_path
    lengths = []

    def recorded(*args, **kwargs):
        lengths.append(args[4])
        return inner(*args, **kwargs)

    monkeypatch.setattr(rtp.solver, "find_exact_restless_path", recorded)
    auto_first_sieve(threshold)
    cfg = FinderConfig(backend=backend, seed=12)
    calls = 0
    for g, s, z, delta, k in random_instances(12, 60, max_lifetime=12):
        calls += solve(g, s, z, delta, k, 0.01, cfg).stats.finder_calls
    # every shorter probe, length 1 included, is searched in place
    assert all(length >= first_sieve_length(cfg) for length in lengths)
    assert calls > len(lengths) and (backend == "brute") == (not lengths)


def test_json_dict_shape(fig1):
    res = solve(fig1, S, Z, 2, 5, 0.01, FinderConfig(backend="brute"))
    payload = res.to_json_dict()
    assert payload["decision"] == "yes"
    assert payload["k"] == 5
    assert payload["temporal_distance"] == 2
    assert payload["ell"] == 3
    assert [tuple(step.values()) for step in payload["witness"]] == list(FIG1_STEPS)
    assert set(payload["stats"]) == {f.name for f in dataclasses.fields(SolveStats)}


def test_windowed_stats_sum_inner_solves(monkeypatch, no_walk_bracket):
    # each window that passes its gate reaches the table path, which adds
    # its counters to the query's one SolveStats
    import rtp.solver
    inner = rtp.solver._table_witness
    counters = [f.name for f in dataclasses.fields(SolveStats) if f.name != "elapsed_seconds"]
    added = []  # per window solved, what its table path added to each counter

    def recorded(g, incident, dt, s, z, delta, k_eff, cfg, stats, arrivals=None):
        before = {c: getattr(stats, c) for c in counters}
        witness = inner(g, incident, dt, s, z, delta, k_eff, cfg, stats, arrivals)
        added.append({c: getattr(stats, c) - before[c] for c in counters})
        return witness

    monkeypatch.setattr(rtp.solver, "_table_witness", recorded)
    summed = 0  # windowed solves with at least two inner solves that search
    for g, s, z, delta, k in random_instances(3, 100, max_lifetime=12, deltas=(1, 2)):
        added.clear()
        res = solve_windowed(g, s, z, delta, k, 0.01,
                             FinderConfig(backend="sieve", seed=3))
        for c in counters:
            assert getattr(res.stats, c) == sum(a[c] for a in added), c
        summed += sum(a["finder_calls"] > 0 for a in added) >= 2
    assert summed >= 2


def test_windowed_solve_builds_no_graph_and_one_index_per_window(monkeypatch):
    # a window is one incident index of the query graph's time-edges in its
    # stamps: no graph is built for it, its table and fill read that index,
    # and its witness is checked against the query graph
    import rtp.path_finder
    import rtp.solver
    # long sparse lifetimes, where some queries solve two windows or more
    instances = random_instances(6060, 300, max_vertices=12, max_lifetime=60,
                                 deltas=(1, 2))
    graphs, indexes, windows = [], [], []
    assign, build, inner = (TemporalGraph._assign, rtp.path_finder.incident_index,
                            rtp.solver._table_witness)

    def counted_assign(self, *args):  # every graph, from layers or time-edges
        graphs.append(self)
        assign(self, *args)

    def counted_build(edges):
        indexes.append(build(edges))
        return indexes[-1]

    def recorded(graph, incident, *args):
        windows.append((graph, incident))
        return inner(graph, incident, *args)

    monkeypatch.setattr(TemporalGraph, "_assign", counted_assign)
    for module in (rtp.solver, rtp.path_finder):
        monkeypatch.setattr(module, "incident_index", counted_build)
    monkeypatch.setattr(rtp.solver, "_table_witness", recorded)
    solved = many = yes = 0
    for g, s, z, delta, k in instances:
        graphs.clear()
        indexes.clear()
        windows.clear()
        res = solve_windowed(g, s, z, delta, k, 0.01, FinderConfig(backend="brute"))
        assert not graphs
        assert len(indexes) == 1 + len(windows)
        for (graph, incident), index in zip(windows, indexes[1:]):
            assert graph is g and incident is index
        if res.decision:
            path = validate_restless_path(g, res.witness.steps, s, z, delta)
            assert path.length <= res.k_effective
            yes += 1
        solved += len(windows)
        many += len(windows) >= 2
    assert solved >= 200 and many >= 10 and yes >= 200, (solved, many, yes)
