"""Recorded table-fill work and answers on seeded instances.

``golden/fill_table_fingerprints.json`` holds, per instance, the corridor
and finder counts of one sieve solve, its table size, its decision and its
witness. Any change to corridor construction or to the table fill that
alters which corridors are built, which probes run or which witness wins
shows up here. Only the named fields are recorded, so new stats keys do
not disturb it.

Regenerate on purpose with ``PYTHONPATH=src python tests/test_fill_table_golden.py``.
"""

from __future__ import annotations

import json
import pathlib

from conftest import random_instances
from rtp import FinderConfig, solve

GOLDEN = pathlib.Path(__file__).with_name("golden").joinpath("fill_table_fingerprints.json")
FIELDS = ("areas_built", "finder_calls", "table_entries")


def fingerprints() -> list[dict]:
    out = []
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


def test_fill_table_matches_recorded_fingerprints():
    want = json.loads(GOLDEN.read_text())
    got = fingerprints()
    assert len(got) == len(want)
    for i, (have, recorded) in enumerate(zip(got, want)):
        assert have == recorded, f"instance {i}"


if __name__ == "__main__":
    GOLDEN.write_text("[\n" + ",\n".join(json.dumps(f) for f in fingerprints()) + "\n]\n")
