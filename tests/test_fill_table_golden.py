"""Recorded table-fill work and answers on seeded instances.

``golden/fill_table_fingerprints.json`` holds, per instance, the corridor
and finder counts of one sieve solve, its table size, its decision and its
witness. Any change to corridor construction or to the table fill that
alters which corridors are built, which probes run or which witness wins
shows up here. Only the named fields are recorded, so new stats keys do
not disturb it. Both files are recorded without ``solve``'s walk bracket
(``conftest.without_walk_bracket``), so the instances it decides still
fill their tables.

``golden/fill_table_auto_seeds.json`` holds the same for solves on backend
auto with its sieve crossover (``path_finder._AUTO_FIRST_SIEVE``) patched
to 3, plus the ``seed=`` of every probe the table fill hands to
``find_exact_restless_path``. The fill's in-place searches draw no seed,
and each finder call draws the next one of the fill's stream. A sieve
solve searches only length 1 in place and brute probes ignore their seeds,
so only this file catches a link that draws the wrong seeds for its sieve
probes.

Regenerate both on purpose with ``PYTHONPATH=src python tests/test_fill_table_golden.py``.
"""

from __future__ import annotations

import json
import pathlib
from unittest import mock

import rtp.path_finder
import rtp.solver
from conftest import random_instances, without_walk_bracket
from rtp import FinderConfig, solve

GOLDEN = pathlib.Path(__file__).with_name("golden").joinpath("fill_table_fingerprints.json")
AUTO_SEEDS = GOLDEN.with_name("fill_table_auto_seeds.json")
FIELDS = ("areas_built", "finder_calls", "table_entries")


def fingerprints() -> list[dict]:
    out = []
    with without_walk_bracket():
        for i, (g, s, z, delta, k) in enumerate(random_instances(
                4040, 40, max_vertices=14, max_lifetime=30, max_k=7)):
            res = solve(g, s, z, delta, k, 0.01, FinderConfig(backend="sieve", seed=1000 + i))
            witness = None
            if res.witness is not None:
                witness = [[e.u, e.v, e.t] for e in res.witness.steps]
            out.append({"query": [s, z, delta, k],
                        **{f: getattr(res.stats, f) for f in FIELDS},
                        "decision": res.decision, "witness": witness})
    return out


def auto_seed_fingerprints() -> list[dict]:
    inner = rtp.solver.find_exact_restless_path
    seeds: list[int] = []

    def recorded(*args, **kwargs):
        seeds.append(kwargs["seed"])
        return inner(*args, **kwargs)

    out = []
    with mock.patch.object(rtp.solver, "find_exact_restless_path", recorded), \
            mock.patch.object(rtp.path_finder, "_AUTO_FIRST_SIEVE", 3), without_walk_bracket():
        for i, (g, s, z, delta, k) in enumerate(random_instances(
                4141, 60, max_vertices=14, max_lifetime=30, max_k=7)):
            seeds.clear()
            res = solve(g, s, z, delta, k, 0.01,
                        FinderConfig(backend="auto", seed=2000 + i))
            witness = None
            if res.witness is not None:
                witness = [[e.u, e.v, e.t] for e in res.witness.steps]
            out.append({"query": [s, z, delta, k], "seeds": list(seeds),
                        **{f: getattr(res.stats, f) for f in ("finder_calls", "areas_built")},
                        "decision": res.decision, "witness": witness})
    return out


def _check(path: pathlib.Path, got: list[dict]) -> None:
    want = json.loads(path.read_text())
    assert len(got) == len(want)
    for i, (have, recorded) in enumerate(zip(got, want)):
        assert have == recorded, f"instance {i}"


def test_fill_table_matches_recorded_fingerprints():
    _check(GOLDEN, fingerprints())


def test_auto_fill_table_replays_recorded_seeds():
    got = auto_seed_fingerprints()
    assert sum(len(f["seeds"]) for f in got) >= 100  # probes do reach the dispatcher
    _check(AUTO_SEEDS, got)


if __name__ == "__main__":
    for path, records in ((GOLDEN, fingerprints()), (AUTO_SEEDS, auto_seed_fingerprints())):
        path.write_text("[\n" + ",\n".join(json.dumps(f) for f in records) + "\n]\n")
