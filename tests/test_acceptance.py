"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line on success (visible with -s or -rP);
a failure reads as the usual pytest assertion. Criteria with stated time
budgets enforce them here.
"""

from __future__ import annotations

import random
import time

import pytest

import oracles
from conftest import S, A, B, C, D, E, Z, random_instances
from rtp import (INF, FinderConfig, SolveStats, TemporalGraph, TimeEdge,
                 compute_distances, find_exact_restless_path_sieve,
                 restless_walk_distance, solve, validate_restless_path)
from rtp.path_finder import _sieve_decide, _trials_for
from rtp.rng import SeedStream

FIG1_STEPS = ((0, 1, 2), (1, 3, 4), (2, 3, 4), (2, 5, 4), (5, 6, 6))


def as_triples(path):
    return tuple((e.u, e.v, e.t) for e in path.steps)


@pytest.fixture(scope="module")
def corpus():
    """1000 seeded small instances shared by several criteria; carries the
    wall time spent solving them."""
    instances = random_instances(20240501, 1000)
    started = time.perf_counter()
    solved = []
    for g, s, z, delta, k in instances:
        res = solve(g, s, z, delta, k, 0.01, FinderConfig(backend="brute"))
        solved.append((g, s, z, delta, k, res))
    return solved, time.perf_counter() - started


def test_criterion_1_golden_instance(fig1):
    started = time.perf_counter()
    for backend in ("brute", "sieve"):
        cfg = FinderConfig(backend=backend, seed=11)
        yes = solve(fig1, S, Z, 2, 5, 0.01, cfg)
        assert yes.decision and as_triples(yes.witness) == FIG1_STEPS
        no = solve(fig1, S, Z, 2, 4, 0.01, cfg)
        assert not no.decision
    yes_answers = 0
    for seed in range(50):
        res = solve(fig1, S, Z, 2, 4, 0.01, FinderConfig(backend="sieve", seed=seed))
        yes_answers += res.decision
    assert yes_answers == 0  # no-instances never produce a yes
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"golden runs took {elapsed:.2f}s"
    print(f"ACCEPTANCE 1 PASS: golden instance, both backends, {elapsed * 1000:.0f}ms")


def test_criterion_2_oracle_equivalence(corpus):
    solved, solve_seconds = corpus
    started = time.perf_counter()
    yes = 0
    for g, s, z, delta, k, res in solved:
        want = oracles.shortest_restless_path(
            oracles.edge_triples(g), s, z, delta, min(k, g.vertex_count - 1))
        assert res.decision == (want is not None), (s, z, delta, k)
        if res.decision:
            assert res.witness.length == want
            yes += 1
    elapsed = solve_seconds + time.perf_counter() - started
    assert elapsed < 60.0
    print(f"ACCEPTANCE 2 PASS: 1000 instances, {yes} yes, exact oracle agreement, "
          f"{elapsed:.1f}s")


def test_criterion_3_yes_side_soundness(fig1, corpus):
    checked = 0
    cfg = FinderConfig(backend="sieve", seed=31)
    res = solve(fig1, S, Z, 2, 5, 0.01, cfg)
    assert res.decision
    validate_restless_path(fig1, res.witness.steps, S, Z, 2)
    checked += 1
    rng = random.Random(313)
    for g, s, z, delta, k, brute_res in corpus[0][:250]:
        sieve_res = solve(g, s, z, delta, k, 0.01,
                          FinderConfig(backend="sieve", seed=rng.getrandbits(64)))
        if sieve_res.decision:
            assert brute_res.decision  # no yes where the exact answer is no
            path = validate_restless_path(g, sieve_res.witness.steps, s, z, delta)
            assert path.length <= min(k, g.vertex_count - 1)
            checked += 1
    assert checked > 50
    print(f"ACCEPTANCE 3 PASS: {checked} sieve yes answers, all witnesses validate")


def test_criterion_4_no_side_error_rate():
    g = TemporalGraph.from_time_edges(4, 5, [
        TimeEdge(0, 1, 1), TimeEdge(1, 2, 3), TimeEdge(2, 3, 4), TimeEdge(1, 3, 5)])
    assert oracles.shortest_restless_path(
        oracles.edge_triples(g), 0, 3, 2, 3) == 3
    noes = 0
    for seed in range(400):
        res = solve(g, 0, 3, 2, 3, 0.2, FinderConfig(backend="sieve", seed=seed))
        noes += not res.decision
    bound = 0.2 + 3 * (0.2 * 0.8 / 400) ** 0.5
    assert noes / 400 <= bound, (noes, bound)
    # screened probes here are certified without trials, so the sieve's
    # own no-rate comes from deciding the length-3 probe's unscreened layers
    layers = oracles.arc_layers(oracles.edge_triples(g), 0, 3, 2, 3, False)
    raw_noes = trials = 0
    for seed in range(400):
        stats = SolveStats()
        found, _ops = _sieve_decide(layers, 3, _trials_for(0.2), SeedStream(seed), stats)
        raw_noes += not found
        trials += stats.sieve_trials
    assert raw_noes / 400 <= bound, (raw_noes, bound)
    assert trials >= 400, trials
    print(f"ACCEPTANCE 4 PASS: no-rate {noes}/400 <= {bound:.3f}, "
          f"{raw_noes}/400 deciding unscreened layers")


def test_criterion_5_distance_table():
    rng = random.Random(50505)
    instances = 0
    while instances < 500:
        nv = rng.randint(2, 8)
        tau = rng.randint(1, 6)
        from rtp import random_temporal_graph
        g = random_temporal_graph(nv, tau, rng.choice([0.5, 1.5, 2.5, 3.5]),
                                  rng.getrandbits(64))
        z = rng.randrange(nv)
        dt = compute_distances(g, z)
        triples = oracles.edge_triples(g)
        for (v, t), d in dt.entries.items():
            assert d == oracles.temporal_distance(triples, v, t, z, nv - 1)
        for v in range(nv):
            times = oracles.appearance_times(dt, v)
            values = [dt.get(v, t) for t in times]
            assert values == sorted(values)
        instances += 1
    print("ACCEPTANCE 5 PASS: 500 instances, distance oracle + monotonicity clean")


def test_criterion_6_lower_bound_chain(corpus):
    checked = 0
    for g, s, z, delta, k, res in corpus[0]:
        if not res.decision:
            continue
        dt = compute_distances(g, z)
        chain = (oracles.static_min(oracles.edge_triples(g), s, z),
                 dt.source_distance(s),
                 restless_walk_distance(g, s, z, delta), res.witness.length)
        if any(x == INF for x in chain):
            continue
        assert chain[0] <= chain[1] <= chain[2] <= chain[3], chain
        checked += 1
    assert checked >= 100
    print(f"ACCEPTANCE 6 PASS: lower-bound chain held on {checked} yes instances")


def test_criterion_7_separator_structure(corpus):
    windows = pairs = 0
    for g, s, z, delta, k, res in corpus[0]:
        if not res.decision:
            continue
        triples = oracles.edge_triples(g)
        best = res.witness.length  # equals the oracle shortest by criterion 2
        dt = compute_distances(g, z)
        ell = best - dt.source_distance(s)
        for steps in oracles.enumerate_restless_paths(triples, s, z, delta, best):
            if len(steps) != best:
                continue
            path = validate_restless_path(g, [TimeEdge(*x) for x in steps],
                                          s, z, delta)
            trace = oracles.separator_trace(path, dt)
            marked = set(trace.indices)
            for start in range(0, best + 1):
                window = set(range(start, min(start + 2 * ell + 1, best + 1)))
                assert window & marked, (steps, trace.indices, ell)
                windows += 1
            seps = sorted(marked)
            for a, b in zip(seps, seps[1:]):
                gap = trace.d_values[a] - trace.d_values[b]
                assert 0 < gap <= ell + 1, (steps, seps, trace.d_values)
                pairs += 1
    assert windows > 500 and pairs > 200
    print(f"ACCEPTANCE 7 PASS: {windows} windows hit a separator, "
          f"{pairs} consecutive pairs within ell+1")


def test_criterion_8_scaling_shape():
    # two hub stars plus sparse interior; s and z deliberately disconnected
    # so every probe measures pure decision work (no witness extraction).
    # The sieve's screen answers such probes with no trial, so the decision
    # runs on each probe's unscreened layers, the ones a walk's roles allow
    edges = []
    for t in (1, 2, 3):
        for i in (1, 2, 3, 4):
            edges.append((0, i, t))
        for j in (6, 7, 8, 9):
            edges.append((11, j, t))
    edges += [(1, 2, 2), (3, 4, 2), (6, 7, 2), (8, 9, 2)]
    g = TemporalGraph.from_time_edges(12, 3, edges)
    cfg = FinderConfig(backend="sieve")
    layers = {length: oracles.arc_layers(oracles.edge_triples(g), 0, 11, 2, length, False)
              for length in range(1, 10)}
    per_call = {}
    wall = {}
    for ell in (1, 2, 3, 4):
        stats = SolveStats()
        t0 = time.perf_counter()
        for length in range(1, 2 * ell + 2):
            assert find_exact_restless_path_sieve(g.time_edges, 0, 11, 2, length, cfg) is None
            if layers[length][-1]:  # else no walk of the full length: a certain no
                found, ops = _sieve_decide(layers[length], length, _trials_for(cfg.error_prob),
                                           SeedStream(600 + length), stats)
                assert not found
                stats.sieve_ops += ops
        wall[ell] = time.perf_counter() - t0
        per_call[ell] = stats.sieve_ops / (2 * ell + 1)
    ratios = [per_call[e + 1] / per_call[e] for e in (1, 2, 3)]
    for ratio in ratios:
        assert 3.0 <= ratio <= 6.0, (per_call, ratios)
    wall_ratios = [wall[e + 1] / wall[e] for e in (1, 2, 3)]
    print("ACCEPTANCE 8 PASS: decision ops per call "
          + ", ".join(f"{per_call[e]:.1f}" for e in per_call)
          + "; factors " + ", ".join(f"{r:.2f}" for r in ratios)
          + " (wall-clock factors " + ", ".join(f"{r:.2f}" for r in wall_ratios) + ")")
