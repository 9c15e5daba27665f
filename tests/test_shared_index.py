"""The incident index a live graph shares (``path_finder.graph_index``):
how long it lives, that no entry point mutates it, and that threads
indexing different graphs get their own answers."""

from __future__ import annotations

import copy
import gc
import pickle
import sys
import threading
import weakref
from dataclasses import asdict

import pytest

import rtp.path_finder
from conftest import FIG1_TEXT, S, Z, random_instances
from rtp import (INF, FinderConfig, TemporalGraph, compute_distances, fill_table,
                 parse_temporal_graph, restless_walk_distance, solve, solve_windowed)
from rtp.path_finder import graph_index


class _Index(dict):
    """An incident index that a weak reference can follow."""


@pytest.fixture
def built(monkeypatch):
    """Weak references to the whole-graph indexes built during a test, in
    build order; each goes dead once nothing holds its index."""
    build = rtp.path_finder.incident_index
    refs = []

    def tracked(edges):
        index = _Index(build(edges))
        refs.append(weakref.ref(index))
        return index

    monkeypatch.setattr(rtp.path_finder, "incident_index", tracked)
    return refs


def test_a_graph_index_dies_with_its_graph(built):
    g = parse_temporal_graph(FIG1_TEXT)
    table = compute_distances(g, Z)
    assert restless_walk_distance(g, S, Z, 2) == 5
    assert len(built) == 1 and built[0]() is not None
    del g
    gc.collect()
    # the table the graph gave, still alive, holds no index either
    assert built[0]() is None and table.entries


def test_only_the_last_graph_indexed_is_held(built):
    first, second = parse_temporal_graph(FIG1_TEXT), parse_temporal_graph(FIG1_TEXT)
    compute_distances(first, Z)
    compute_distances(second, Z)
    gc.collect()
    assert len(built) == 2 and built[0]() is None and built[1]() is not None
    # the first graph, still alive, indexes again, and the second's goes
    compute_distances(first, Z)
    gc.collect()
    assert len(built) == 3 and built[1]() is None and built[2]() is not None


def test_reassigned_time_edges_get_a_fresh_index(built):
    g = parse_temporal_graph(FIG1_TEXT)
    whole = compute_distances(g, Z)
    g.time_edges = g.edges_between(1, 4)
    cut = compute_distances(g, Z)
    assert len(built) == 2
    alone = TemporalGraph.from_time_edges(g.vertex_count, g.lifetime, g.time_edges)
    assert cut == compute_distances(alone, Z) != whole
    # z's one time-edge is at stamp 6, outside the kept stamps
    assert restless_walk_distance(g, S, Z, 2) == restless_walk_distance(alone, S, Z, 2) == INF


@pytest.mark.parametrize("clone", [lambda g: pickle.loads(pickle.dumps(g)),
                                   copy.copy, copy.deepcopy])
def test_a_copied_graph_indexes_on_its_own(clone, built):
    g = parse_temporal_graph(FIG1_TEXT)
    table = compute_distances(g, Z)
    again = clone(g)
    assert compute_distances(again, Z) == table
    assert restless_walk_distance(again, S, Z, 2) == 5
    assert len(built) == 2
    del again
    gc.collect()
    assert built[1]() is None


@pytest.mark.parametrize("backend", ["brute", "sieve", "auto"])
def test_no_entry_point_mutates_the_shared_index(backend, auto_first_sieve):
    # auto sends probes of length 3 and more to the sieve, so small
    # instances reach both of its finders
    auto_first_sieve(3)
    cfg = FinderConfig(backend=backend, seed=11)
    fills = 0
    for g, s, z, delta, k in random_instances(3535, 300):
        index = graph_index(g)
        before = copy.deepcopy(index)
        solve(g, s, z, delta, k, 0.01, cfg)
        solve_windowed(g, s, z, delta, k, 0.01, cfg)
        table = compute_distances(g, z)
        restless_walk_distance(g, s, z, delta)
        if table.source_distance(s) <= k:
            fill_table(g, table, s, z, delta, k, cfg)
            fills += 1
        assert graph_index(g) is index and index == before
    assert fills >= 100, fills


def _answer(g, s, z, delta, k):
    """Every result of one graph's entry points, counters aside of time."""
    cfg = FinderConfig(backend="sieve", seed=5)
    results = [solve(g, s, z, delta, k, 0.01, cfg),
               solve_windowed(g, s, z, delta, k, 0.01, cfg)]
    return ([(r.decision, r.witness, r.temporal_distance,
              {**asdict(r.stats), "elapsed_seconds": 0}) for r in results],
            compute_distances(g, z), restless_walk_distance(g, s, z, delta))


def test_threads_solving_distinct_graphs_get_the_serial_answers():
    instances = random_instances(4747, 120)
    serial = [_answer(*instance) for instance in instances]
    got = [None] * len(instances)
    start = threading.Barrier(4)

    def worker(first):
        start.wait(timeout=60)
        for i in range(first, len(instances), 4):  # each thread its own graphs
            got[i] = _answer(*instances[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so their calls interleave
    try:
        threads = [threading.Thread(target=worker, args=(first,)) for first in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == serial
