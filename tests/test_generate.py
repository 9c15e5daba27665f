from __future__ import annotations

import random
import time

from rtp import random_temporal_graph
from rtp.generate import _poisson, _unrank_pair


def walk_unrank(index, n):
    """Reference: walk the lexicographic pair list row by row."""
    u = 0
    remaining = index
    row = n - 1
    while remaining >= row:
        remaining -= row
        u += 1
        row -= 1
    return (u, u + 1 + remaining)


def test_unrank_pair_matches_row_walk():
    for n in range(2, 61):
        for index in range(n * (n - 1) // 2):
            assert _unrank_pair(index, n) == walk_unrank(index, n), (index, n)
    rng = random.Random(60)
    for _ in range(300):
        n = rng.randint(61, 3 * 10**5)
        index = rng.randrange(n * (n - 1) // 2)
        assert _unrank_pair(index, n) == walk_unrank(index, n), (index, n)
        u = rng.randrange(1, n - 1)  # the first pair of row u, and the last of row u - 1
        row_start = u * (2 * n - u - 1) // 2
        assert _unrank_pair(row_start, n) == (u, u + 1), (u, n)
        assert _unrank_pair(row_start - 1, n) == (u - 1, n - 1), (u, n)


def test_generation_time_does_not_grow_with_vertex_count():
    started = time.perf_counter()
    g = random_temporal_graph(10**9, 10, 3.0, 1)
    assert time.perf_counter() - started < 1.0
    assert g.time_edges and all(e.u < e.v < 10**9 for e in g.time_edges)


def test_poisson_mean_holds_past_exp_underflow():
    # exp(-mean) is 0.0 above a mean of about 745; one product-of-uniforms
    # draw would then stop near 745 whatever the mean
    rng = random.Random(2000)
    draws = [_poisson(rng, 2000.0, 10**9) for _ in range(200)]
    mean = sum(draws) / len(draws)
    assert abs(mean - 2000.0) <= 3 * (2000.0 / len(draws)) ** 0.5, mean
    g = random_temporal_graph(100, 3, 2000.0, 1)
    assert abs(len(g.time_edges) - 6000) <= 3 * 6000 ** 0.5, len(g.time_edges)


def test_huge_mean_stops_at_the_layer_capacity():
    started = time.perf_counter()
    g = random_temporal_graph(10, 3, 1e9, 1)
    assert time.perf_counter() - started < 1.0
    assert len(g.time_edges) == 3 * 45  # every pair at every stamp

