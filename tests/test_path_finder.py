from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import S, A, B, C, D, E, Z, line_with_chord, random_instances
from rtp import (FinderConfig, SolveStats, TemporalGraph, TimeEdge,
                 find_exact_restless_path, find_exact_restless_path_brute,
                 find_exact_restless_path_sieve, random_temporal_graph)
from rtp.path_finder import (_build_structure, _certified_path, _sieve_decide, _trials_for,
                             first_sieve_length, incident_index, search_index)
from rtp.rng import SeedStream

FIG1_STEPS = ((0, 1, 2), (1, 3, 4), (2, 3, 4), (2, 5, 4), (5, 6, 6))


def as_triples(path):
    return tuple((e.u, e.v, e.t) for e in path.steps)


def decide_unscreened(triples, s, z, delta, length, seed, stats):
    """The sieve's decision alone, at the default trial count, over the
    unscreened layers that a walk's roles allow (``oracles.arc_layers``):
    (found, ops), and a certain no with no trial when no walk of the full
    length survives the roles."""
    layers = oracles.arc_layers(triples, s, z, delta, length, False)
    if not layers[-1]:
        return False, 0
    return _sieve_decide(layers, length, _trials_for(FinderConfig().error_prob, 1),
                         SeedStream(seed), stats)


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


def test_search_depth_is_not_bounded_by_recursion():
    # a probe of 1099 hops, past the interpreter's default recursion limit
    g = line_with_chord(1100)
    incident = incident_index(g.time_edges)
    line = tuple((i, i + 1, i + 1) for i in range(1099))
    for lo in (1099, 2):
        path = search_index(incident, 0, 1099, 1, lo, 1099)
        assert path is not None and as_triples(path) == line
    # the 1099-hop line is found first; the dropped bound then admits the chord
    assert as_triples(search_index(incident, 0, 1099, 1, 1, 1099)) == ((0, 1099, 1100),)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 8), st.integers(1, 6), st.sampled_from([0.5, 1.5, 3.0, 5.0]),
       st.integers(0, 2**64 - 1), st.integers(1, 3), st.integers(1, 6), st.integers(0, 5))
def test_range_search_returns_the_first_exact_hit(nv, lifetime, density, seed, delta,
                                                  lo, extra):
    # over the whole graph's index: [lo, hi] returns the path of the first
    # exact probe L = lo..hi that finds one, and None iff every probe does
    g = random_temporal_graph(nv, lifetime, density, seed)
    s, z, hi = 0, nv - 1, lo + extra
    incident = incident_index(g.time_edges)
    exact = (search_index(incident, s, z, delta, length, length)
             for length in range(lo, hi + 1))
    want = next((path for path in exact if path is not None), None)
    got = search_index(incident, s, z, delta, lo, hi)
    assert (got and got.steps) == (want and want.steps)
    lengths = {n for n in oracles.restless_path_lengths(
        oracles.edge_triples(g), s, z, delta, hi) if n >= lo}
    assert (got and got.length) == min(lengths, default=None)


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


def test_seed_argument_replaces_config_seed(fig1, monkeypatch):
    import rtp.path_finder
    seeds = []

    class Recorded(rtp.path_finder.SeedStream):
        def __init__(self, seed):
            seeds.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(rtp.path_finder, "SeedStream", Recorded)
    cfg = FinderConfig(backend="sieve", seed=5)
    find_exact_restless_path(fig1.time_edges, S, Z, 2, 5, cfg, seed=9)
    assert seeds == [9]
    find_exact_restless_path(fig1.time_edges, S, Z, 2, 5, cfg)
    assert seeds == [9, 5]


def test_dispatch_brute_matches_brute(fig1):
    cfg = FinderConfig(backend="brute")
    path = find_exact_restless_path(fig1.time_edges, S, Z, 2, 5, cfg)
    assert as_triples(path) == FIG1_STEPS


def test_dispatch_auto_uses_brute_below_threshold(auto_first_sieve):
    auto_first_sieve(4)
    g = random_temporal_graph(8, 6, 3.0, 12)
    stats = SolveStats()
    cfg = FinderConfig(backend="auto", seed=1)
    find_exact_restless_path(g.time_edges, 0, 7, 2, 2, cfg, stats=stats)
    assert stats.sieve_trials == 0  # brute path taken, no sieve work


def test_dispatch_auto_uses_sieve_for_long_searches(auto_first_sieve):
    auto_first_sieve(4)
    g = random_temporal_graph(10, 6, 3.5, 13)
    assert len(g.time_edges) > 16
    stats = SolveStats()
    cfg = FinderConfig(backend="auto", seed=1)
    find_exact_restless_path(g.time_edges, 0, 9, 2, 5, cfg, stats=stats)
    assert stats.sieve_trials >= 1


def test_dispatch_auto_sends_tiny_edge_sets_to_brute(auto_first_sieve):
    # two 0-1 routes at one stamp: brute returns the first in index order
    # (via 2), the sieve's certificate the last in key order (via 3);
    # time-edges on {4, 5} make the set 16 (tiny, brute) or 17 (the sieve)
    auto_first_sieve(2)
    routes = [TimeEdge(0, 2, 1), TimeEdge(1, 2, 1), TimeEdge(0, 3, 1), TimeEdge(1, 3, 1)]
    cfg = FinderConfig(backend="auto", seed=1)
    for count in (16, 17):
        g = TemporalGraph.from_time_edges(
            6, 13, routes + [TimeEdge(4, 5, t) for t in range(1, count - 3)])
        assert len(g.time_edges) == count
        brute = as_triples(find_exact_restless_path_brute(g.time_edges, 0, 1, 1, 2))
        sieve = as_triples(find_exact_restless_path_sieve(g.time_edges, 0, 1, 1, 2, cfg))
        assert brute == ((0, 2, 1), (1, 2, 1)) and sieve == ((0, 3, 1), (1, 3, 1))
        got = as_triples(find_exact_restless_path(g.time_edges, 0, 1, 1, 2, cfg))
        assert got == (brute if count == 16 else sieve), count


def test_finders_answer_any_edge_order_as_canonical(auto_first_sieve):
    # reversed and shuffled time-edges get the canonical input's answer,
    # step for step, from brute, the sieve (whose peel runs in key order)
    # and the auto dispatcher
    auto_first_sieve(2)
    rng = random.Random(1515)
    stats = SolveStats()
    found = 0
    for seed in range(200):
        g = random_temporal_graph(7, 6, 4.0, seed)
        s, z = rng.sample(range(7), 2)
        delta = rng.randint(1, 3)
        shuffled = list(g.time_edges)
        rng.shuffle(shuffled)
        cfg = FinderConfig(backend="auto", seed=seed)
        finders = (find_exact_restless_path_brute,
                   lambda *a, **kw: find_exact_restless_path_sieve(*a, cfg, **kw),
                   lambda *a, **kw: find_exact_restless_path(*a, cfg, **kw))
        for length in range(1, 5):
            for finder in finders:
                want = finder(g.time_edges, s, z, delta, length, stats=stats)
                found += want is not None
                for edges in (g.time_edges[::-1], shuffled):
                    got = finder(edges, s, z, delta, length)
                    assert (got and as_triples(got)) == (want and as_triples(want)), \
                        (seed, length, finder)
    assert found >= 1500 and stats.extraction_decisions >= 100, (found, stats)


def test_one_rule_for_probes_that_may_reach_the_sieve(monkeypatch, auto_first_sieve):
    import rtp.path_finder
    assert first_sieve_length(FinderConfig(backend="brute")) == float("inf")
    assert first_sieve_length(FinderConfig(backend="sieve")) == 2
    assert first_sieve_length(FinderConfig(backend="auto")) == 7
    auto_first_sieve(5)  # read at call time
    assert first_sieve_length(FinderConfig(backend="auto")) == 5
    inner = rtp.path_finder.find_exact_restless_path_sieve
    reached = []

    def recorded(*args, **kwargs):
        reached.append(args[4])
        return inner(*args, **kwargs)

    monkeypatch.setattr(rtp.path_finder, "find_exact_restless_path_sieve", recorded)
    g = random_temporal_graph(10, 6, 3.5, 13)
    assert len(g.time_edges) > 16  # not tiny, so auto may reach the sieve
    for backend, threshold in (("brute", 7), ("sieve", 7), ("auto", 2), ("auto", 4)):
        auto_first_sieve(threshold)
        cfg = FinderConfig(backend=backend, seed=1)
        reached.clear()
        for length in range(1, 7):
            stats = SolveStats()
            find_exact_restless_path(g.time_edges, 0, 9, 2, length, cfg, stats=stats)
            assert stats.finder_calls == 1
        first = first_sieve_length(cfg)
        assert reached == [length for length in range(1, 7) if length >= first], cfg


def test_trials_for_pins_its_edges():
    # the i-th decision of one stats object runs within p * 2^-i, at 2^-58
    # per trial; the count is taken in log space, so 2^-1074 needs no split
    assert _trials_for(0.01, 51) == 1 and _trials_for(0.01, 52) == 2
    assert _trials_for(2 ** -57, 1) == 1
    assert _trials_for(5e-324, 1) == 19
    assert _trials_for(0.999, 1) == 1


def test_trials_for_is_the_least_count_within_the_share():
    # exact powers of two put log2(1/p) + i on multiples of 58
    grid = [0.999, 0.5, 0.2, 0.05, 0.01, 5e-324]
    grid += [10.0 ** -e for e in range(1, 324)] + [2.0 ** -e for e in range(1, 1075)]
    for p in grid:
        for i in range(1, 201):
            need = -math.log2(p) + i
            t = _trials_for(p, i)
            assert t >= 1 and 58 * t >= need and (t == 1 or 58 * (t - 1) < need), (p, i, t)


def test_sieve_trial_work_scales_with_subsets_and_length():
    # raw decision work over unscreened layers: per-trial ops should track
    # 2^length * length * graph size within a factor of two
    g = random_temporal_graph(10, 6, 2.0, 8)
    measured = {}
    lengths = (4, 6, 8, 10)
    for length in lengths:
        stats = SolveStats()
        _found, ops = decide_unscreened(oracles.edge_triples(g), 0, 9, 2, length, 77, stats)
        measured[length] = ops / stats.sieve_trials
    ratios = [measured[length] / (2 ** length * length) for length in lengths]
    assert max(ratios) <= 2 * min(ratios), (measured, ratios)


def test_screens_cut_raw_sieve_work(fig1):
    # the probe schedule of one slack-2 link, lengths 1..5: the sieve's
    # decision work against deciding every probe's unscreened layers
    stats, raw = SolveStats(), SolveStats()
    raw_ops = 0
    for length in range(1, 6):
        cfg = FinderConfig(backend="sieve", seed=3 + length)
        find_exact_restless_path_sieve(fig1.time_edges, S, Z, 2, length, cfg, stats=stats)
        raw_ops += decide_unscreened(oracles.edge_triples(fig1), S, Z, 2, length,
                                     3 + length, raw)[1]
    assert raw_ops > stats.sieve_ops


def random_builds(seed, count):
    """(triples, s, z, delta, length, shuffled) for random structure
    builds, about half of them over shuffled edges."""
    rng = random.Random(seed)
    for _ in range(count):
        nv = rng.randint(2, 9)
        g = random_temporal_graph(nv, rng.randint(1, 6), rng.choice([0.5, 1.0, 2.0, 3.5, 5.0]),
                                  rng.getrandbits(64))
        s, z = rng.sample(range(nv), 2)
        triples = oracles.edge_triples(g)
        shuffled = rng.random() < 0.5
        if shuffled:
            rng.shuffle(triples)
        length, delta = rng.randint(1, 7), rng.randint(1, 3)
        yield triples, s, z, delta, length, shuffled


def build(triples, s, z, delta, length):
    """The sieve's structure over the incident index of `triples`."""
    return _build_structure(incident_index([TimeEdge(*x) for x in triples]), s, z, delta, length)


def fits_a_path(layers, length):
    """The screen's count rule, by definition: at least `length` distinct
    heads and `length` distinct time-edges on the layers' arcs."""
    heads = {head for layer in layers for head, _e, _p in layer}
    edge_ids = {e for layer in layers for _h, e, _p in layer}
    return min(len(heads), len(edge_ids)) >= length


def test_build_structure_matches_definition():
    # layers and pred positions against walks enumerated from the
    # definition, empty when the count rule leaves no room for a path, and
    # a decision's work over unscreened layers against its cost; the
    # oracle lists arcs in key order, so the shuffled half also checks that
    # the structure does not depend on the input order
    counts = {"full": 0, "cut": 0, "screened out": 0, "counted out": 0, "decided": 0}
    lengths = set()
    for n, (triples, s, z, delta, length, _shuffled) in enumerate(random_builds(4242, 2400)):
        got = build(triples, s, z, delta, length)
        want = oracles.arc_layers(triples, s, z, delta, length, True)
        assert got == (want if fits_a_path(want, length) else []), (triples, s, z, delta, length)
        lengths.add(length)
        roles_only = oracles.arc_layers(triples, s, z, delta, length, False)
        if got:
            counts["full"] += 1
            counts["cut"] += sum(map(len, want)) < sum(map(len, roles_only))
        else:
            counts["screened out"] += bool(roles_only[-1])
            counts["counted out"] += bool(want[-1])
        if roles_only[-1] and n % 8 == 1:  # a sample, for time
            # per subset, each arc costs its preds plus two products
            cost = sum(len(p) + 2 for layer in roles_only for _h, _e, p in layer)
            stats = SolveStats()
            _found, ops = _sieve_decide(roles_only, length, 2, SeedStream(n), stats)
            assert stats.sieve_trials >= 1
            assert ops == stats.sieve_trials * (2 ** length - 1) * cost
            counts["decided"] += 1
    assert lengths == set(range(1, 8))
    assert counts["full"] >= 300 and counts["cut"] >= 150, counts
    assert counts["screened out"] >= 150 and counts["counted out"] >= 100, counts
    assert counts["decided"] >= 100, counts


def test_count_rule_never_rejects_a_path():
    # every build the screen empties has no restless path of its length,
    # over shuffled and canonical edge orders alike
    rejected = {False: 0, True: 0}
    walks_rejected = 0
    for triples, s, z, delta, length, shuffled in random_builds(2525, 3000):
        if build(triples, s, z, delta, length):
            continue
        assert length not in oracles.restless_path_lengths(triples, s, z, delta, length), \
            (triples, s, z, delta, length)
        rejected[shuffled] += 1
        walks_rejected += bool(oracles.arc_layers(triples, s, z, delta, length, True)[-1])
    assert min(rejected.values()) >= 500, rejected
    assert walks_rejected >= 150, walks_rejected  # walks of the full length, but no room


def test_certified_walk_is_a_path():
    # whenever a screened build passes the certificate, a restless path of
    # its length exists, and the certified edges are one
    certified = refused = long_certified = 0
    for triples, s, z, delta, length, _shuffled in random_builds(2424, 6000):
        layers = build(triples, s, z, delta, length)
        if not layers:
            continue
        path = _certified_path(layers)
        if path is None:
            refused += 1
            continue
        assert length in oracles.restless_path_lengths(triples, s, z, delta, length), \
            (triples, s, z, delta, length)
        steps = {(u, v, t) for t, u, v in path}
        assert any(steps == set(p) for p in oracles.enumerate_restless_paths(
            triples, s, z, delta, length) if len(p) == length)
        certified += 1
        long_certified += length >= 4  # below 4 the certificate always holds
    assert certified >= 500 and refused >= 100, (certified, refused)
    assert long_certified >= 20, long_certified


def test_sieve_cancels_walks_that_are_not_paths():
    # length-4 restless walks exist (s-a-b-a-z and s-a-c-a-z revisit a) but
    # no simple path does; the two pendants give the walks 4 heads and 6
    # time-edges, room for a path, so only the algebraic cancellation rejects
    g = TemporalGraph.from_time_edges(5, 4, [
        TimeEdge(0, 1, 1), TimeEdge(1, 2, 2), TimeEdge(1, 2, 3),
        TimeEdge(1, 4, 2), TimeEdge(1, 4, 3), TimeEdge(1, 3, 4)])
    triples = oracles.edge_triples(g)
    assert oracles.restless_walk_min(triples, 0, 3, 1, cap=8) <= 4
    assert oracles.restless_path_lengths(triples, 0, 3, 1, 5) == set()
    assert fits_a_path(oracles.arc_layers(triples, 0, 3, 1, 4, True), 4)
    for seed in range(80):
        stats = SolveStats()
        cfg = FinderConfig(backend="sieve", seed=seed)
        assert find_exact_restless_path_sieve(g.time_edges, 0, 3, 1, 4, cfg,
                                              stats=stats) is None
        assert stats.sieve_trials >= 1 and stats.screened == 0


def test_screen_answers_walks_without_room_for_a_path():
    # one pendant: the walk s-a-b-a-z has only 3 distinct heads, so the
    # screen answers no with no trial, whatever the disconnected edge adds
    g = TemporalGraph.from_time_edges(6, 4, [
        TimeEdge(0, 1, 1), TimeEdge(1, 2, 2), TimeEdge(1, 2, 3),
        TimeEdge(1, 3, 4), TimeEdge(4, 5, 1)])
    assert oracles.restless_walk_min(oracles.edge_triples(g), 0, 3, 1, cap=8) <= 4
    for seed in range(10):
        stats = SolveStats()
        cfg = FinderConfig(backend="sieve", seed=seed)
        assert find_exact_restless_path_sieve(g.time_edges, 0, 3, 1, 4, cfg,
                                              stats=stats) is None
        assert stats.sieve_trials == 0 and stats.screened == 1


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
    for seed in range(40):  # the certificate answers above: the decision alone
        stats = SolveStats()
        found, _ops = decide_unscreened(oracles.edge_triples(g), 0, 3, 2, 2, seed, stats)
        assert found and stats.sieve_trials >= 1


def test_single_stamp_graph():
    # every hop shares one stamp: gaps are zero, any simple path qualifies
    g = TemporalGraph.from_time_edges(5, 1, [
        TimeEdge(0, 1, 1), TimeEdge(1, 2, 1), TimeEdge(2, 3, 1),
        TimeEdge(3, 4, 1), TimeEdge(0, 4, 1)])
    for backend in ("brute", "sieve"):
        cfg = FinderConfig(backend=backend, seed=2)
        path = find_exact_restless_path(g.time_edges, 0, 4, 1, 4, cfg)
        assert path is not None and path.length == 4
    stats = SolveStats()  # the decision alone, over unscreened layers
    found, _ops = decide_unscreened(oracles.edge_triples(g), 0, 4, 1, 4, 2, stats)
    assert found and stats.sieve_trials >= 1


def test_finder_config_validation():
    with pytest.raises(ValueError):
        FinderConfig(backend="magic")
    with pytest.raises(ValueError):
        FinderConfig(error_prob=0.0)
    with pytest.raises(ValueError):
        FinderConfig(error_prob=1.0)


def test_stats_counters_move(fig1):
    stats = SolveStats()
    cfg = FinderConfig(backend="sieve", seed=9)
    find_exact_restless_path_sieve(fig1.time_edges, S, Z, 2, 5, cfg, stats=stats)
    assert stats.finder_calls == 1
    assert stats.sieve_trials >= 1
    assert stats.sieve_ops > 0
    assert stats.extraction_decisions >= 1


def test_extraction_matches_one_at_a_time_peel():
    rng = random.Random(808)
    instances = [(g, s, z, delta) for g, s, z, delta, _k in
                 random_instances(808, 700, max_vertices=9, max_lifetime=8)]
    while len(instances) < 1000:  # a denser family: more walks per corridor
        g = random_temporal_graph(9, 6, rng.choice([4.0, 6.0]), rng.getrandbits(64))
        s, z = rng.sample(range(9), 2)
        instances.append((g, s, z, rng.choice((1, 2, 3))))
    yes = dense_yes = certified = parallel_singles = 0
    lengths = set()
    for g, s, z, delta in instances:
        triples = oracles.edge_triples(g)
        for length in (1, rng.randint(2, 7)):
            want = oracles.peel_witness(triples, s, z, delta, length)
            if want is None:
                continue
            cfg = FinderConfig(backend="sieve", seed=rng.getrandbits(64))
            stats = SolveStats()
            got = find_exact_restless_path_sieve(g.time_edges, s, z, delta, length, cfg,
                                                 stats=stats)
            assert got is not None and as_triples(got) == want, (triples, s, z, delta, length)
            yes += 1
            dense_yes += len(triples) >= 20
            certified += stats.sieve_trials == 0  # else the sieve decided and peeled
            # at length 1 the peel leaves the last of the s-z time-edges
            parallel_singles += (length == 1
                                 and sum({u, v} == {s, z} for u, v, _t in triples) >= 2)
            lengths.add(length)
    assert yes >= 200 and dense_yes >= 100, (yes, dense_yes)
    assert certified >= 100 and yes - certified >= 100, (certified, yes)
    assert parallel_singles >= 50, parallel_singles
    assert lengths == set(range(1, 8))


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_extraction_decisions_grow_slower_than_edges(seed):
    g = random_temporal_graph(12, 10, 8.0, seed)  # dense: about 80 time-edges
    assert 70 <= len(g.time_edges) <= 90
    stats = SolveStats()
    cfg = FinderConfig(backend="sieve", seed=seed)
    path = find_exact_restless_path_sieve(g.time_edges, 0, 11, 2, 7, cfg, stats=stats)
    assert path is not None
    assert as_triples(path) == oracles.peel_witness(oracles.edge_triples(g), 0, 11, 2, 7)
    # one-at-a-time peeling made 73, 78 and 77 decisions here, block peeling 13, 15, 13
    assert stats.extraction_decisions < len(g.time_edges) // 2
