"""Seeded random temporal-graph instances."""

from __future__ import annotations

import math
import random

from .temporal_graph import TemporalGraph

_POISSON_PART = 500  # exp(-mean) underflows to 0 near a mean of 745


def _poisson(rng: random.Random, mean: float, cap: int) -> int:
    """A Poisson draw of the given mean, for a caller that clips it to cap.
    A mean above _POISSON_PART is drawn as a sum of equal parts of at most
    that mean, which stops once it reaches cap, so a huge mean costs no
    more than its cap."""
    if mean > _POISSON_PART:
        parts = math.ceil(mean / _POISSON_PART)
        count = 0
        for _ in range(parts):
            if count >= cap:
                break
            count += _poisson(rng, mean / parts, cap)
        return count
    if mean <= 0:
        return 0
    limit = math.exp(-mean)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= limit:
            return k
        k += 1


def _unrank_pair(index: int, n: int) -> tuple[int, int]:
    # index into the lexicographic list of pairs (u, v), u < v: row u
    # starts at u*(2n-u-1)//2, and the root of that quadratic, rounded
    # down from an integer square root, overshoots the row by at most one
    u = (2 * n - 1 - math.isqrt((2 * n - 1) ** 2 - 8 * index)) // 2
    if u * (2 * n - u - 1) // 2 > index:
        u -= 1
    return (u, u + 1 + index - u * (2 * n - u - 1) // 2)


def random_temporal_graph(vertices: int, lifetime: int, edges_per_layer: float,
                          seed: int) -> TemporalGraph:
    """A graph whose layer sizes are Poisson-distributed around
    edges_per_layer, edges drawn uniformly without replacement.

    Reproducible: the same arguments always produce the same graph.
    """
    if vertices < 2:
        raise ValueError("need at least 2 vertices")
    if lifetime < 1:
        raise ValueError("lifetime must be at least 1")
    if not 0 <= edges_per_layer < math.inf:
        raise ValueError("edges_per_layer must be finite and non-negative")
    rng = random.Random(seed)
    max_edges = vertices * (vertices - 1) // 2
    layers = []
    for _ in range(lifetime):
        count = min(_poisson(rng, edges_per_layer, max_edges), max_edges)
        picks = rng.sample(range(max_edges), count)
        layers.append([_unrank_pair(i, vertices) for i in sorted(picks)])
    return TemporalGraph(vertices, lifetime, layers)
