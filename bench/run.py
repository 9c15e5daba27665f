"""Seeded closed-loop benchmark of the rtp library.

    python3 bench/run.py --workload corridor --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1            # all workloads, one process each

Run from anywhere; the library is imported from ``src/`` next to this
directory, never from an installed copy. Run with plain ``python3``, not
``-O``: the solver's ``__debug__`` chain checks are part of what users pay.

One run, for one workload and seed:

1. set-up, repeated ``SETUP_REPS`` times: generate the query pool, serialize
   every graph to TEL and parse it back (``setup_s`` adds the import time
   of ``rtp`` to the median repetition);
2. references for every query, outside any timing;
3. one untimed warm-up pass over the pool, stopped after
   ``WARMUP_SECONDS``;
4. the timed pass: one client calls the library in a closed loop over the
   pool, starting again at its head, until the operations' summed time
   reaches ``--seconds``, with a host-speed sample every
   ``CALIBRATE_EVERY`` seconds (see ``REFERENCE_LOOPS_PER_S``);
5. with ``--trace 1``, one more pass over the head of the pool, each
   query once as is and once with the public entry points wrapped (see
   ``tracing.py``); its spans go to ``.bench_out/`` at the repository root.

Every answer of every pass is checked (``workloads.check``); a mismatch or
exception counts as a failed operation and makes the exit status 1. A miss
that the library's brute backend repeats is counted and printed as a shared
miss, not as a failure. The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and the ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
WARMUP_SECONDS = 3.0
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it
# A shared host runs the same pure-Python code up to a third slower or
# faster, in phases lasting from seconds to minutes. A fixed calibration
# loop, sampled between operations, measures that speed; each operation's
# time is scaled by the mean of the samples just before and just after it,
# to a host that runs the loop REFERENCE_LOOPS_PER_S times a second (a round
# figure inside the range the 2-CPU, Python 3.11.7 machine of
# bench/baseline.json shows), and raw times are printed. The loop builds, filters and sorts a dict of about a megabyte,
# so that memory pressure from other tenants slows it as it slows the
# library; a smaller, cache-resident loop tracked the library less well.
REFERENCE_LOOPS_PER_S = 250.0
CALIBRATE_SECONDS = 0.05
CALIBRATE_EVERY = 0.5  # seconds of operations between calibration samples


def _import_rtp() -> float:
    """Import the library from this checkout's src/; return the import time."""
    if not (SRC / "rtp" / "__init__.py").is_file():
        sys.exit(f"bench: no rtp package under {SRC}")
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import rtp
    elapsed = time.perf_counter() - started
    if Path(rtp.__file__).resolve().parent != SRC / "rtp":
        sys.exit(f"bench: imported rtp from {rtp.__file__}, expected {SRC}")
    return elapsed


class Pass:
    """Latencies and check outcomes of one pass over the pool."""

    def __init__(self):
        self.latencies: list[float] = []
        self.busy = 0.0  # summed operation time
        self.failed = 0
        self.shared_misses = 0
        self.yes = 0
        self.notes: list[str] = []

    def run_one(self, w, pool, refs, i, around=nullcontext) -> object:
        """Time one operation inside ``around()``, then check its answer."""
        from workloads import FAILED, check, is_yes, run_op
        q = pool[i]
        started = time.perf_counter()
        try:
            with around():
                result = run_op(w, q)
        except Exception as err:  # an operation that raises is a failed one
            self._record(started)
            self._note(FAILED, f"{type(err).__name__}: {err}", q, i)
            return None
        self._record(started)
        problem = check(w, q, result, refs[i])
        if problem is not None:
            self._note(*problem, q, i)
        if problem is None or problem[0] != FAILED:
            self.yes += is_yes(w, result)
        return result

    def _note(self, verdict: str, why: str, q, i: int) -> None:
        from workloads import FAILED
        if verdict == FAILED:
            self.failed += 1
        else:
            self.shared_misses += 1
        if len(self.notes) < 5:
            self.notes.append(f"{verdict.upper()}: query {i} (s={q.s} z={q.z} "
                              f"delta={q.delta} k={q.k}): {why}")

    def _record(self, started: float) -> None:
        elapsed = time.perf_counter() - started
        self.latencies.append(elapsed)
        self.busy += elapsed


def _host_speed() -> float:
    """Speed of this host right now, relative to the reference host.

    The collector is off while the loop runs, so that the size of the
    program's own heap does not slow the loop."""
    gc.disable()
    try:
        started = time.perf_counter()
        loops = 0
        while (elapsed := time.perf_counter() - started) < CALIBRATE_SECONDS:
            table = {(j, j & 7): j * j % 11 for j in range(10000)}
            {key for key in table if key[1] < 4}
            sorted(table.values())
            loops += 1
    finally:
        gc.enable()
    return loops / elapsed / REFERENCE_LOOPS_PER_S


def _scaled(times: list[float], marks: list[tuple[int, float]]) -> list[float]:
    """Each time multiplied by the host speed around it.

    ``marks`` holds (number of times recorded so far, host speed) samples,
    taken between operations, first before the first and last after the
    last; a time is scaled by the mean of the two samples around it.
    """
    out: list[float] = []
    for (start, before), (end, after) in zip(marks, marks[1:]):
        out.extend(x * (before + after) / 2.0 for x in times[start:end])
    return out


def _tail(latencies: list[float], pct: float) -> tuple[float, float, int]:
    """The nearest-rank ``pct`` percentile, or the highest one with
    TAIL_BEYOND samples above it if that is lower; with the percentile
    taken and the number of samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, min(math.ceil(pct / 100.0 * n), n - TAIL_BEYOND))
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_s: float) -> int:
    from workloads import WORKLOADS, build_pool, reference
    w = WORKLOADS[name]

    setups: list[float] = []
    setup_marks = [(0, _host_speed())]
    pool = None
    for _ in range(SETUP_REPS):
        pool = None  # let the previous pool go before building the next
        started = time.perf_counter()
        pool = build_pool(w, seed)
        setups.append(time.perf_counter() - started)
        setup_marks.append((len(setups), _host_speed()))
    started = time.perf_counter()
    refs = [reference(w, q) for q in pool]
    refs_s = time.perf_counter() - started
    # the pool and references live for the whole run; keep the collector
    # from rescanning them, as a user holding one graph would not pay that
    gc.collect()
    gc.freeze()

    warm = Pass()
    for i in range(len(pool)):
        warm.run_one(w, pool, refs, i)
        if warm.busy >= WARMUP_SECONDS:
            break

    timed = Pass()
    marks: list[tuple[int, float]] = []
    i = 0
    while timed.busy < seconds:
        if timed.busy >= CALIBRATE_EVERY * len(marks):
            marks.append((len(timed.latencies), _host_speed()))
        timed.run_one(w, pool, refs, i)
        i = (i + 1) % len(pool)
    marks.append((len(timed.latencies), _host_speed()))

    passes = [warm, timed]
    lat_ms = [x * 1000.0 for x in timed.latencies]
    scaled_ms = _scaled(lat_ms, marks)
    tail_ms, tail_pct, beyond = _tail(lat_ms, w.tail_pct)
    raw = {
        "ops_per_s": len(lat_ms) / timed.busy,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_tail_ms": tail_ms,
        "setup_s": import_s + statistics.median(setups),
    }
    speed = sum(scaled_ms) / sum(lat_ms)  # the timed pass's mean host speed
    end_to_end = {
        "ops_per_s": (1000.0 * len(scaled_ms) / sum(scaled_ms), "1/s"),
        "latency_p50_ms": (statistics.median(scaled_ms), "ms"),
        "latency_tail_ms": (_tail(scaled_ms, w.tail_pct)[0], "ms"),
        "setup_s": (import_s * setup_marks[0][1]
                    + statistics.median(_scaled(setups, setup_marks)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"workload {name} seed {seed}: {len(pool)} queries")
    print(f"machine: {os.cpu_count()} CPUs, Python {platform.python_version()}")
    print(f"phases: set-up {' '.join(f'{x:.3f}' for x in setups)} s, "
          f"references {refs_s:.3f} s, warm-up {warm.busy:.3f} s "
          f"({len(warm.latencies)} ops), timed {timed.busy:.3f} s "
          f"({len(timed.latencies)} ops, {len(timed.latencies) / len(pool):.2f} pool passes)")
    print(f"host speed {speed:.4f} in the timed pass, "
          f"{statistics.fmean(m[1] for m in setup_marks):.4f} in set-up "
          f"(1 is the reference host)")
    for key, (value, unit) in end_to_end.items():
        measured = f" (measured {raw[key]:.6g})" if key in raw else ""
        print(f"{key} {value:.6g} {unit}{measured}")
    print(f"latency_tail_ms is p{tail_pct:.2f} of {len(lat_ms)} samples "
          f"({beyond} beyond it)")

    metrics = end_to_end
    if trace:
        metrics = _traced_pass(w, seed, pool, refs, passes)

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    misses = sum(p.shared_misses for p in passes)
    print(f"error_rate {failed / attempted:.6g} ({failed} failed of {attempted} attempted)")
    print(f"shared misses {misses} of {attempted} attempted (the solver misses a "
          f"restless path within k with every backend)")
    for p in passes:
        for note in p.notes:
            print(note, file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def _traced_pass(w, seed, pool, refs, passes) -> dict:
    """One pass over the head of the pool, each query run untraced and then
    traced, so that both sides of the overhead see the same host load."""
    from tracing import Tracer, layer_report
    tracer = Tracer()
    untraced, traced = Pass(), Pass()
    traced_queries = min(w.traced_queries, len(pool))
    for i in range(traced_queries):
        untraced.run_one(w, pool, refs, i)
        tracer.op = i
        result = traced.run_one(w, pool, refs, i, tracer.installed)
        stats = getattr(result, "stats", None)
        if stats is not None:
            tracer.counts["solver.table_entries"] += stats.table_entries
            tracer.counts["solver.areas_built"] += stats.areas_built
            tracer.counts["solver.finder_calls"] += stats.finder_calls
    passes += [untraced, traced]
    layers = layer_report(tracer, traced.busy, traced_queries)
    overhead_pct = 100.0 * (traced.busy / untraced.busy - 1.0)

    fingerprint = {"yes": traced.yes, **{k: layers[k][0] for k in (
        "solver.areas_built", "solver.finder_calls", "solver.table_entries",
        "distances.work", "path_finder.sieve_ops",
        "path_finder.extraction_decisions")}}
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    for key, (value, unit) in layers.items():
        print(f"{key} {value:.6g} {unit}")
    print(f"trace overhead {overhead_pct:.1f}% over {traced_queries} queries: "
          f"untraced {traced_queries / untraced.busy:.4g} ops/s, "
          f"traced {traced_queries / traced.busy:.4g} ops/s")

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{w.name}-{seed}.json", "w") as f:
        json.dump({"workload": w.name, "seed": seed, "fingerprint": fingerprint,
                   "layers": layers, "overhead_pct": overhead_pct,
                   "span_fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans}, f)
    # seconds stay out of the result line: a layer that a workload never
    # enters reads exactly 0 s on every run; its share carries the time
    return {k: v for k, v in layers.items() if v[1] != "s"}


def main(argv=None) -> int:
    if not __debug__:
        sys.exit("bench: run without -O; the solver's __debug__ checks are measured")
    import_s = _import_rtp()
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                            import_s)
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
