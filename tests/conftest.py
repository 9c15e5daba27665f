from __future__ import annotations

import importlib.resources
import random
from unittest import mock

import pytest

import rtp.path_finder
import rtp.solver
from rtp import TemporalGraph, TimeEdge, area_graph, parse_temporal_graph, random_temporal_graph
from rtp.areas import keep_rule
from rtp.path_finder import incident_index

FIG1_TEXT = importlib.resources.files("rtp").joinpath("data/fig1.tel").read_text()


@pytest.fixture(scope="session")
def fig1() -> TemporalGraph:
    return parse_temporal_graph(FIG1_TEXT)


def without_walk_bracket():
    """A context in which ``solve`` and ``solve_windowed`` do not bracket
    by the shortest restless walk, so every query whose temporal distance
    is within budget reaches the distance table and the fill. The bracket's
    search still runs, and records the walk states the fill's prune reads.
    Tests of the fill keep their instances this way when the bracket
    decides them."""
    inner = rtp.solver._no_walk_within

    def recorded_only(*args):
        inner(*args)
        return False

    return mock.patch.object(rtp.solver, "_no_walk_within", recorded_only)


@pytest.fixture
def no_walk_bracket():
    with without_walk_bracket():
        yield


def unpruned_fill():
    """A context in which the table path of ``solve`` fills every table
    entry, as ``fill_table`` and a windowed solve's windows do, with no
    entry skipped by the walk search's forward hop bound. Tests of the
    fill's own counters keep their instances this way."""
    inner = rtp.solver._fill

    def without_arrivals(g, dt, incident, s, delta, k, cfg, stats, arrivals=None):
        return inner(g, dt, incident, s, delta, k, cfg, stats)

    return mock.patch.object(rtp.solver, "_fill", without_arrivals)


@pytest.fixture
def no_prune():
    with unpruned_fill():
        yield


@pytest.fixture
def auto_first_sieve(monkeypatch):
    """Call with a length to make it, for one test, the shortest probe that
    backend auto may send to the sieve, so small instances reach it."""
    return lambda length: monkeypatch.setattr(rtp.path_finder, "_AUTO_FIRST_SIEVE", length)


# fig1 vertex ids by alias
S, A, B, C, D, E, Z = range(7)


def random_instances(seed: int, count: int, *, max_vertices=8, max_lifetime=6,
                     deltas=(1, 2, 3), max_k=6):
    """Seeded stream of (graph, s, z, delta, k) query instances."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        nv = rng.randint(2, max_vertices)
        tau = rng.randint(1, max_lifetime)
        density = rng.choice([0.5, 1.0, 1.5, 2.5, 3.5])
        g = random_temporal_graph(nv, tau, density, rng.getrandbits(64))
        s = rng.randrange(nv)
        z = rng.randrange(nv)
        if s == z:
            continue
        out.append((g, s, z, rng.choice(deltas), rng.randint(1, max_k)))
    return out


def corridor(g, dt, spec):
    """The corridor of spec over g, materialized under its keep rule."""
    return area_graph(g, spec, keep_rule(dt, incident_index(g.time_edges), spec))


def line_with_chord(n: int) -> TemporalGraph:
    """Vertices 0..n-1 on a line, edge {i, i+1} at stamp i+1, plus the
    chord {0, n-1} at stamp n: one restless 0-(n-1) path of each length
    1 and n - 1 at waiting bound 1."""
    return TemporalGraph.from_time_edges(
        n, n, [TimeEdge(i, i + 1, i + 1) for i in range(n - 1)] + [TimeEdge(0, n - 1, n)])
