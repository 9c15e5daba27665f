"""Print sha256s per solve workload over the answers to its benchmark pool.

    python3 tests/pool_fingerprint.py --seed 201
    python3 tests/pool_fingerprint.py --seed 201 --head 100   # first 100 queries
    python3 tests/pool_fingerprint.py --workload corridor     # that pool alone
    python3 tests/pool_fingerprint.py --skip-counter entries_visited

For each of corridor, sieve, windowed and bulk (or only the pools named by
``--workload``, which may be repeated), every query of
``bench/workloads.build_pool(W, seed)`` is answered by the benchmark's own
operation (``workloads.run_op``). Per solve workload, two lines:

    <name> <queries> answers <sha256> counters <sha256>
    <name> totals <counter>=<sum over the pool> ...

The answers hash covers each answer's decision, witness steps,
``subcall_error_prob`` and ``temporal_distance``; the counters hash covers
every ``SolveStats`` field but ``elapsed_seconds``, and the totals line
sums each of those fields over the pool, then gives ``table_path``, the
number of queries with nonzero ``table_entries``: those that reached a
table fill. So a change that redefines one counter still shows whether
the answers, and the other counters, stay the same. ``--skip-counter
NAME``, which may be repeated, leaves that field out of the counters hash
and the totals, so the hashes of a commit that adds a counter can be
compared with those of one without it. Bulk answers with a distance table
and a walk distance, so its one line, ``bulk <queries> answers
<sha256>``, hashes each query's sorted table entries and walk distance. The library is imported from ``src/``
next to this directory; the script only reads ``bench/``. pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib
import sys
from collections import Counter
from dataclasses import asdict, fields

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402
from rtp import SolveStats  # noqa: E402

SOLVE_WORKLOADS = ("corridor", "sieve", "windowed")
WORKLOADS = SOLVE_WORKLOADS + ("bulk",)


def answer_key(result) -> tuple:
    """What one answer must reproduce, counters aside."""
    steps = None
    if result.witness is not None:
        steps = tuple((e.u, e.v, e.t) for e in result.witness.steps)
    return (result.decision, steps, result.subcall_error_prob, result.temporal_distance)


def counters(result, skip: tuple[str, ...] = ()) -> dict[str, int]:
    """Every ``SolveStats`` field but its wall time and those in ``skip``."""
    stats = asdict(result.stats)
    for name in ("elapsed_seconds", *skip):
        del stats[name]
    return stats


def fingerprint(name: str, seed: int, head: int | None,
                skip: tuple[str, ...] = ()) -> tuple[int, str, str, Counter]:
    w = workloads.WORKLOADS[name]
    pool = workloads.build_pool(w, seed)[:head]
    answers, counted, totals = hashlib.sha256(), hashlib.sha256(), Counter()
    for q in pool:
        result = workloads.run_op(w, q)
        stats = counters(result, skip)
        answers.update(repr(answer_key(result)).encode() + b"\n")
        counted.update(repr(sorted(stats.items())).encode() + b"\n")
        totals.update(stats, table_path=result.stats.table_entries > 0)
    return len(pool), answers.hexdigest(), counted.hexdigest(), totals


def bulk_fingerprint(seed: int, head: int | None) -> tuple[int, str]:
    pool = workloads.build_pool(workloads.WORKLOADS["bulk"], seed)[:head]
    answers = hashlib.sha256()
    for q in pool:
        table, walk = workloads.run_op(workloads.WORKLOADS["bulk"], q)
        answers.update(repr((sorted(table.entries.items()), walk)).encode() + b"\n")
    return len(pool), answers.hexdigest()


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
    args = parser.parse_args(argv)
    for name in WORKLOADS:
        if args.workload and name not in args.workload:
            continue
        if name == "bulk":
            count, answers = bulk_fingerprint(args.seed, args.head)
            print(f"bulk {count} answers {answers}", flush=True)
            continue
        count, answers, counted, totals = fingerprint(name, args.seed, args.head,
                                                      tuple(args.skip_counter))
        print(f"{name} {count} answers {answers} counters {counted}")
        table_path = totals.pop("table_path")
        print(f"{name} totals " + " ".join(f"{k}={totals[k]}" for k in sorted(totals))
              + f" table_path={table_path}", flush=True)


if __name__ == "__main__":
    main()
