"""The benchmark harness reaches into the library by name: ``bench/tracing.py``
rebinds module attributes and reads stats fields, and ``bench/run.py``
reads more fields. These tests load the harness as it is, so dropping or
renaming one of those names fails here, not only when the benchmark runs.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import pathlib
import re

import pytest

import rtp
import rtp.temporal_graph
from conftest import S, Z
from rtp import FinderConfig, SolveStats

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracing):
    graph_cls = rtp.temporal_graph.TemporalGraph
    out = {(id(owner), attr): getattr(owner, attr)
           for _name, owners, attr in tracing._ENTRY_POINTS for owner in owners}
    out[id(graph_cls), "from_time_edges"] = graph_cls.__dict__["from_time_edges"]
    return out


def test_every_entry_point_resolves(tracing):
    for name, owners, attr in tracing._ENTRY_POINTS:
        for owner in owners:
            assert callable(getattr(owner, attr, None)), (name, owner.__name__, attr)
    assert isinstance(rtp.temporal_graph.TemporalGraph.__dict__["from_time_edges"],
                      classmethod)


def test_tracer_enters_and_restores_every_binding(tracing, fig1):
    before = bindings(tracing)
    tracer = tracing.Tracer()
    with tracer.installed():
        inside = bindings(tracing)
        assert all(inside[key] is not before[key] for key in before)
        res = rtp.solve(fig1, S, Z, 2, 5, 0.01, FinderConfig(backend="sieve", seed=7))
    assert bindings(tracing) == before
    assert res.decision
    names = {span[0] for span in tracer.spans}
    assert {"solver.solve", "distances.compute", "areas.area_graph",
            "path_finder.find", "solver.reconstruct",
            "temporal_graph.validate"} <= names, names
    layers = tracing.layer_report(tracer, 1.0, 1)
    assert layers["areas.edges_kept"][0] > 0 and layers["path_finder.hits"][0] > 0


def test_solve_stats_has_every_field_the_harness_reads(tracing):
    run_fields = set(re.findall(r"\bstats\.(\w+)", (BENCH / "run.py").read_text()))
    assert {"table_entries", "areas_built", "finder_calls"} <= run_fields
    have = {f.name for f in dataclasses.fields(SolveStats)}
    assert run_fields | set(tracing._FINDER_FIELDS) <= have
