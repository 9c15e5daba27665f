"""Print sha256s per solve workload over the answers to its benchmark pool.

    python3 tests/pool_fingerprint.py --seed 201
    python3 tests/pool_fingerprint.py --seed 201 --head 100   # first 100 queries
    python3 tests/pool_fingerprint.py --workload corridor     # that pool alone
    python3 tests/pool_fingerprint.py --skip-counter entries_visited
    python3 tests/pool_fingerprint.py --backend sieve     # every solve pool on sieve

For each of corridor, sieve, windowed and bulk (or only the pools named by
``--workload``, which may be repeated), every query of
``bench/workloads.build_pool(W, seed)`` is answered by the benchmark's own
operation (``workloads.run_op``), or, with ``--backend``, by the same
solve with that finder backend in place of the pool's own (brute on
windowed, auto on corridor, sieve on sieve), so that a change to a path
only one backend reaches, such as a windowed corridor, which brute never
builds, still shows in the hashes. Per solve workload, two lines:

    <name> <queries> answers <sha256> counters <sha256>
    <name> totals <counter>=<sum over the pool> ...

The answers hash covers each answer's decision, witness steps and
``temporal_distance``; the counters hash covers every ``SolveStats``
field but ``elapsed_seconds``, and the totals line sums each of those
fields over the pool, then gives ``table_path``, the number of queries
with nonzero ``table_entries``: those that reached a table fill. So a
change that redefines one counter still shows whether the answers, and
the other counters, stay the same. ``--skip-counter NAME``, which may be
repeated, leaves that field out of the counters hash and the totals, so
the hashes of a commit that adds a counter can be compared with those of
one without it. Bulk answers with a distance table
and a walk distance, so its one line, ``bulk <queries> answers <sha256>
graphs <sha256> work=<sum>``, hashes each query's table entries, as
sorted ``(v, t, d)`` triples so that the hash does not depend on the key
type, and its walk distance; hashes the canonical TEL serialization of
each query's text parsed again, which is the text itself on a correct
parse, so a change to the parser shows there; and sums the tables'
``work``, the pairs their level searches scanned, which the hashes leave
out. After each pool's hash lines, one more line,

    <name> index_builds=<n> edges_indexed=<m> walk_searches=<w>

counts the ``path_finder.incident_index`` builds made while the pool is
built and answered, the time-edges they indexed, and the
``distances.walk_hops`` searches run, outside both hashes: the script
wraps ``incident_index`` and ``walk_hops`` in every ``rtp`` module that
imports them, and counts each built index's pairs, two per time-edge, so
an index that is shared counts once, where it is built.
The library is imported from ``src/`` next to this directory; the script
only reads ``bench/``. pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, fields

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
import rtp  # noqa: E402
from rtp import FinderConfig, SolveStats  # noqa: E402

SOLVE_WORKLOADS = ("corridor", "sieve", "windowed")
WORKLOADS = SOLVE_WORKLOADS + ("bulk",)


@contextmanager
def counting_builds_and_walks():
    """Count ``incident_index`` builds, the time-edges they index, and
    ``walk_hops`` searches, through every ``rtp`` module that imports
    either, as ``builds``, ``edges`` and ``walks`` of the yielded Counter."""
    build, walk = rtp.path_finder.incident_index, rtp.distances.walk_hops
    counted = Counter()

    def counted_build(edges):
        index = build(edges)
        counted["builds"] += 1
        counted["edges"] += sum(map(len, index.values())) // 2
        return index

    def counted_walk(*args):
        counted["walks"] += 1
        return walk(*args)

    swaps = [(owner, name, original, wrapper)
             for module, owner in sys.modules.items() if module.split(".")[0] == "rtp"
             for name, original, wrapper in (("incident_index", build, counted_build),
                                             ("walk_hops", walk, counted_walk))
             if getattr(owner, name, None) is original]
    for owner, name, _, wrapper in swaps:
        setattr(owner, name, wrapper)
    try:
        yield counted
    finally:
        for owner, name, original, _ in swaps:
            setattr(owner, name, original)


def answer_key(result) -> tuple:
    """What one answer must reproduce, counters aside."""
    steps = None
    if result.witness is not None:
        steps = tuple((e.u, e.v, e.t) for e in result.witness.steps)
    return (result.decision, steps, result.temporal_distance)


def counters(result, skip: tuple[str, ...] = ()) -> dict[str, int]:
    """Every ``SolveStats`` field but its wall time and those in ``skip``."""
    stats = asdict(result.stats)
    for name in ("elapsed_seconds", *skip):
        del stats[name]
    return stats


def answer(w, q, backend: str | None):
    """One query's answer: the benchmark's own operation, or, with a
    ``backend``, its solve with that backend."""
    if backend is None:
        return workloads.run_op(w, q)
    solver = rtp.solve_windowed if w.name == "windowed" else rtp.solve
    return solver(q.graph, q.s, q.z, q.delta, q.k, workloads.ERROR_PROB,
                  FinderConfig(backend=backend, seed=q.finder_seed))


def fingerprint(name: str, seed: int, head: int | None, skip: tuple[str, ...] = (),
                backend: str | None = None) -> tuple[int, str, str, Counter]:
    w = workloads.WORKLOADS[name]
    pool = workloads.build_pool(w, seed)[:head]
    answers, counted, totals = hashlib.sha256(), hashlib.sha256(), Counter()
    for q in pool:
        result = answer(w, q, backend)
        stats = counters(result, skip)
        answers.update(repr(answer_key(result)).encode() + b"\n")
        counted.update(repr(sorted(stats.items())).encode() + b"\n")
        totals.update(stats, table_path=result.stats.table_entries > 0)
    return len(pool), answers.hexdigest(), counted.hexdigest(), totals


def bulk_fingerprint(seed: int, head: int | None) -> tuple[int, str, str, int]:
    pool = workloads.build_pool(workloads.WORKLOADS["bulk"], seed)[:head]
    answers, graphs, work = hashlib.sha256(), hashlib.sha256(), 0
    for q in pool:
        table, walk = workloads.run_op(workloads.WORKLOADS["bulk"], q)
        entries = sorted((v, t, d) for (v, t), d in table.entries.items())
        answers.update(repr((entries, walk)).encode() + b"\n")
        graphs.update(rtp.serialize_temporal_graph(rtp.parse_temporal_graph(q.text)).encode())
        work += table.work
    return len(pool), answers.hexdigest(), graphs.hexdigest(), work


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=201)
    parser.add_argument("--head", type=int, default=None,
                        help="answer only the first HEAD queries of each pool")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="fingerprint only this pool; repeat for more (default: all)")
    counter_names = [f.name for f in fields(SolveStats) if f.name != "elapsed_seconds"]
    parser.add_argument("--skip-counter", action="append", default=[], metavar="NAME",
                        choices=counter_names,
                        help="leave this SolveStats field out of the counters hash and "
                             "totals; repeat for more")
    parser.add_argument("--backend", choices=("brute", "sieve", "auto"),
                        help="solve every query of each solve pool with this finder "
                             "backend (default: the pool's own); bulk has none")
    args = parser.parse_args(argv)
    for name in WORKLOADS:
        if args.workload and name not in args.workload:
            continue
        if name == "bulk":
            with counting_builds_and_walks() as built:
                count, answers, graphs, work = bulk_fingerprint(args.seed, args.head)
            print(f"bulk {count} answers {answers} graphs {graphs} work={work}")
        else:
            with counting_builds_and_walks() as built:
                count, answers, counted, totals = fingerprint(
                    name, args.seed, args.head, tuple(args.skip_counter), args.backend)
            print(f"{name} {count} answers {answers} counters {counted}")
            table_path = totals.pop("table_path")
            print(f"{name} totals " + " ".join(f"{k}={totals[k]}" for k in sorted(totals))
                  + f" table_path={table_path}")
        print(f"{name} index_builds={built['builds']} edges_indexed={built['edges']} "
              f"walk_searches={built['walks']}", flush=True)


if __name__ == "__main__":
    main()
