"""Print one sha256 per solve workload over the answers to its benchmark pool.

    python3 tests/pool_fingerprint.py --seed 201
    python3 tests/pool_fingerprint.py --seed 201 --head 100   # first 100 queries

For each of corridor, sieve and windowed, every query of
``bench/workloads.build_pool(W, seed)`` is answered by the benchmark's own
operation (``workloads.run_op``). Each answer contributes its decision, its
witness steps, every ``SolveStats`` field but ``elapsed_seconds``, its
``subcall_error_prob`` and its ``temporal_distance``. Two checkouts that
print the same lines give the same answers, witnesses and counters on these
pools. The library is imported from ``src/`` next to this directory; the
script only reads ``bench/``. pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import pathlib
import sys
from dataclasses import asdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workloads  # noqa: E402

SOLVE_WORKLOADS = ("corridor", "sieve", "windowed")


def answer_key(result) -> tuple:
    """What one answer must reproduce: everything but its wall time."""
    steps = None
    if result.witness is not None:
        steps = tuple((e.u, e.v, e.t) for e in result.witness.steps)
    stats = asdict(result.stats)
    del stats["elapsed_seconds"]
    return (result.decision, steps, tuple(sorted(stats.items())),
            result.subcall_error_prob, result.temporal_distance)


def fingerprint(name: str, seed: int, head: int | None) -> tuple[int, str]:
    w = workloads.WORKLOADS[name]
    pool = workloads.build_pool(w, seed)[:head]
    digest = hashlib.sha256()
    for q in pool:
        digest.update(repr(answer_key(workloads.run_op(w, q))).encode())
        digest.update(b"\n")
    return len(pool), digest.hexdigest()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=201)
    parser.add_argument("--head", type=int, default=None,
                        help="answer only the first HEAD queries of each pool")
    args = parser.parse_args(argv)
    for name in SOLVE_WORKLOADS:
        count, digest = fingerprint(name, args.seed, args.head)
        print(f"{name} {count} {digest}", flush=True)


if __name__ == "__main__":
    main()
