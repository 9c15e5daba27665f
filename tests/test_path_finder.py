from __future__ import annotations

import random

import pytest

import oracles
from conftest import S, A, B, C, D, E, Z, random_instances
from rtp import (FinderConfig, FinderStats, TemporalGraph, TimeEdge,
                 find_exact_restless_path, find_exact_restless_path_brute,
                 find_exact_restless_path_sieve, random_temporal_graph)

FIG1_STEPS = ((0, 1, 2), (1, 3, 4), (2, 3, 4), (2, 5, 4), (5, 6, 6))


def as_triples(path):
    return tuple((e.u, e.v, e.t) for e in path.steps)


def test_brute_finds_unique_fig1_path(fig1):
    path = find_exact_restless_path_brute(fig1.time_edges, S, Z, 2, 5)
    assert path is not None
    assert as_triples(path) == FIG1_STEPS


def test_brute_absent_at_length_four(fig1):
    assert find_exact_restless_path_brute(fig1.time_edges, S, Z, 2, 4) is None
    # cross-check by naive enumeration
    assert 4 not in oracles.restless_path_lengths(
        oracles.edge_triples(fig1), S, Z, 2, 6)


def test_single_step_always_restless():
    g = TemporalGraph.from_time_edges(2, 9, [TimeEdge(0, 1, 9)])
    cfg = FinderConfig(backend="sieve", seed=5)
    for finder in (find_exact_restless_path_brute,
                   lambda *a: find_exact_restless_path_sieve(*a, cfg)):
        path = finder(g.time_edges, 0, 1, 1, 1)
        assert path is not None and path.length == 1


def test_brute_parameter_validation(fig1):
    with pytest.raises(ValueError):
        find_exact_restless_path_brute(fig1.time_edges, S, S, 2, 1)
    with pytest.raises(ValueError):
        find_exact_restless_path_brute(fig1.time_edges, S, Z, 2, 0)
    with pytest.raises(ValueError):
        find_exact_restless_path_brute(fig1.time_edges, S, Z, 0, 1)


def test_sieve_finds_fig1_path_across_seeds(fig1):
    hits = 0
    for seed in range(200):
        cfg = FinderConfig(backend="sieve", error_prob=0.01, seed=seed)
        path = find_exact_restless_path_sieve(fig1.time_edges, S, Z, 2, 5, cfg)
        if path is not None:
            assert as_triples(path) == FIG1_STEPS
            hits += 1
    assert hits >= 198  # one-sided misses only, far below 1%


def test_sieve_no_instance_never_says_yes(fig1):
    for seed in range(100):
        cfg = FinderConfig(backend="sieve", error_prob=0.5, seed=seed)
        assert find_exact_restless_path_sieve(fig1.time_edges, S, Z, 2, 4, cfg) is None


def test_sieve_agrees_with_brute_on_random_instances():
    rng = random.Random(321)
    yes_seen = no_seen = misses = 0
    for g, s, z, delta, _k in random_instances(321, 1000, max_k=6):
        length = rng.randint(1, 6)
        want = find_exact_restless_path_brute(g.time_edges, s, z, delta, length)
        cfg = FinderConfig(backend="sieve", error_prob=0.01, seed=rng.getrandbits(64))
        got = find_exact_restless_path_sieve(g.time_edges, s, z, delta, length, cfg)
        if want is None:
            assert got is None  # absent instances never produce a path
            no_seen += 1
        else:
            yes_seen += 1
            if got is None:
                misses += 1  # allowed, at most at the configured rate
            else:
                assert got.length == length
    assert yes_seen > 100 and no_seen > 100
    # 3-sigma envelope around a 1% miss rate
    assert misses <= 0.01 * yes_seen + 3 * (0.01 * yes_seen) ** 0.5 + 1


def test_returned_paths_always_validate():
    rng = random.Random(654)
    returned = 0
    for g, s, z, delta, _k in random_instances(654, 300):
        length = rng.randint(1, 5)
        cfg = FinderConfig(backend="sieve", error_prob=0.2, seed=rng.getrandbits(64))
        path = find_exact_restless_path_sieve(g.time_edges, s, z, delta, length, cfg)
        if path is None:
            continue
        returned += 1
        assert oracles.check_restless_sequence(
            [(e.u, e.v, e.t) for e in path.steps],
            set(oracles.edge_triples(g)), s, z, delta)
        assert path.length == length
    assert returned > 30


def test_sieve_deterministic_under_seed(fig1):
    cfg = FinderConfig(backend="sieve", seed=123456789)
    first = find_exact_restless_path_sieve(fig1.time_edges, S, Z, 2, 5, cfg)
    second = find_exact_restless_path_sieve(fig1.time_edges, S, Z, 2, 5, cfg)
    assert as_triples(first) == as_triples(second)


def test_dispatch_brute_matches_brute(fig1):
    cfg = FinderConfig(backend="brute")
    path = find_exact_restless_path(fig1.time_edges, S, Z, 2, 5, cfg)
    assert as_triples(path) == FIG1_STEPS


def test_dispatch_auto_uses_brute_below_threshold():
    g = random_temporal_graph(8, 6, 3.0, 12)
    stats = FinderStats()
    cfg = FinderConfig(backend="auto", auto_threshold=4, seed=1)
    find_exact_restless_path(g.time_edges, 0, 7, 2, 2, cfg, stats=stats)
    assert stats.sieve_trials == 0  # brute path taken, no sieve work


def test_dispatch_auto_uses_sieve_for_long_searches():
    g = random_temporal_graph(10, 6, 3.5, 13)
    assert len(g.time_edges) > 16
    stats = FinderStats()
    cfg = FinderConfig(backend="auto", auto_threshold=4, seed=1)
    find_exact_restless_path(g.time_edges, 0, 9, 2, 5, cfg, stats=stats)
    assert stats.sieve_trials >= 1


def test_sieve_trial_work_scales_with_subsets_and_length():
    # raw decision work, screens off: per-trial ops should track
    # 2^length * length * graph size within a factor of two
    g = random_temporal_graph(10, 6, 2.0, 8)
    cfg0 = FinderConfig(backend="sieve", use_screens=False, seed=77)
    measured = {}
    lengths = (4, 6, 8, 10)
    for length in lengths:
        stats = FinderStats()
        find_exact_restless_path_sieve(g.time_edges, 0, 9, 2, length, cfg0, stats=stats)
        measured[length] = stats.sieve_ops / stats.sieve_trials
    ratios = [measured[length] / (2 ** length * length) for length in lengths]
    assert max(ratios) <= 2 * min(ratios), (measured, ratios)


def test_screens_cut_raw_sieve_work(fig1):
    # the probe schedule of one slack-2 link, lengths 1..5, with and
    # without the walk-feasibility screens
    ops = {}
    for screens in (True, False):
        stats = FinderStats()
        for length in range(1, 6):
            cfg = FinderConfig(backend="sieve", seed=3 + length, use_screens=screens)
            find_exact_restless_path_sieve(fig1.time_edges, S, Z, 2, length, cfg,
                                           stats=stats)
        ops[screens] = stats.sieve_ops
    assert ops[False] > ops[True]


def test_sieve_cancels_walks_that_are_not_paths():
    # a length-4 restless walk exists (s-a-b-a-z revisits a) but no simple
    # path does; the disconnected edge keeps the vertex support large
    # enough that only the algebraic cancellation can reject
    g = TemporalGraph.from_time_edges(6, 4, [
        TimeEdge(0, 1, 1), TimeEdge(1, 2, 2), TimeEdge(1, 2, 3),
        TimeEdge(1, 3, 4), TimeEdge(4, 5, 1)])
    assert oracles.restless_walk_min(
        oracles.edge_triples(g), 0, 3, 1, cap=8) <= 4
    assert oracles.restless_path_lengths(
        oracles.edge_triples(g), 0, 3, 1, 5) == set()
    for seed in range(80):
        stats = FinderStats()
        cfg = FinderConfig(backend="sieve", seed=seed)
        assert find_exact_restless_path_sieve(g.time_edges, 0, 3, 1, 4, cfg,
                                              stats=stats) is None
        assert stats.sieve_trials >= 1  # the screens alone cannot reject


def test_sieve_separates_parallel_routes():
    # two vertex-disjoint length-2 routes: distinct paths must not cancel
    # each other
    g = TemporalGraph.from_time_edges(4, 2, [
        TimeEdge(0, 1, 1), TimeEdge(1, 3, 2),
        TimeEdge(0, 2, 1), TimeEdge(2, 3, 2)])
    for seed in range(40):
        cfg = FinderConfig(backend="sieve", seed=seed)
        path = find_exact_restless_path_sieve(g.time_edges, 0, 3, 2, 2, cfg)
        assert path is not None and path.length == 2


def test_single_stamp_graph():
    # every hop shares one stamp: gaps are zero, any simple path qualifies
    g = TemporalGraph.from_time_edges(5, 1, [
        TimeEdge(0, 1, 1), TimeEdge(1, 2, 1), TimeEdge(2, 3, 1),
        TimeEdge(3, 4, 1), TimeEdge(0, 4, 1)])
    for backend in ("brute", "sieve"):
        cfg = FinderConfig(backend=backend, seed=2)
        path = find_exact_restless_path(g.time_edges, 0, 4, 1, 4, cfg)
        assert path is not None and path.length == 4


def test_finder_config_validation():
    with pytest.raises(ValueError):
        FinderConfig(backend="magic")
    with pytest.raises(ValueError):
        FinderConfig(error_prob=0.0)
    with pytest.raises(ValueError):
        FinderConfig(error_prob=1.0)
    with pytest.raises(ValueError):
        FinderConfig(auto_threshold=0)


def test_stats_counters_move(fig1):
    stats = FinderStats()
    cfg = FinderConfig(backend="sieve", seed=9)
    find_exact_restless_path_sieve(fig1.time_edges, S, Z, 2, 5, cfg, stats=stats)
    assert stats.calls == 1
    assert stats.sieve_trials >= 1
    assert stats.sieve_ops > 0
    assert stats.extraction_decisions >= 1
