"""Seeded inputs, operations and answer checks for the benchmark workloads.

Every workload builds a pool of queries from one ``random.Random`` stream
keyed by the workload name and the seed: graphs come from
``rtp.random_temporal_graph``, are serialized to TEL and parsed back, and
``s``, ``z``, ``delta`` and ``k = d + ell`` are drawn from the same stream.
``delta`` and ``ell`` cycle through fixed cells, so every seed gets the
same mix and only the graphs and endpoints vary between seeds.

Answers are checked against brute-force references at the end of this
module, written from the definitions and sharing no code with the library:
a breadth-first sweep for distance tables and walk distances, and a pruned
depth-first search over restless paths for decisions and shortest witness
lengths. Where a solve answer disagrees with the search, the query is
solved again with ``backend="brute"``, the reference the benchmark's
answers are held to: an answer that agrees with it is a miss of the library
itself, shared by every backend, which is counted and reported apart from
the failures (see ``check``).
"""

from __future__ import annotations

import bisect
import heapq
import math
import random
from dataclasses import dataclass

import rtp
from rtp import FinderConfig

INF = math.inf
ERROR_PROB = 0.01



@dataclass
class Query:
    text: str          # TEL serialization of the generated graph
    graph: object      # the graph parsed back from text (bulk: as generated)
    s: int
    z: int
    delta: int
    k: int             # d + ell for solve workloads, unused by bulk
    finder_seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    pool_size: int
    vertices: tuple[int, ...]       # cycled per query
    lifetime: tuple[int, ...]       # cycled per query
    edges_per_layer: tuple[float, ...]  # cycled per query
    deltas: tuple[int, ...]
    ells: tuple[int, ...]
    tail_pct: float     # latency percentile reported as the tail
    traced_queries: int  # head of the pool that the traced pass runs


# One query's cost varies several-fold between graphs, so the spread between
# seeds shrinks with the number of distinct queries a run answers: each pool
# is sized so the timed pass meets most queries once, with sizes below the
# paper-scale ones to make that count large. The costs are heavy-tailed, so
# the slowest ten of a run vary by a fifth from seed to seed; the tail
# percentile is fixed per workload to keep 20 to 150 samples beyond it in a
# 20 s run, and stays the same percentile when a change makes the run answer
# more queries (run.py lowers it when a run has fewer than ten beyond). The
# traced pass is sized to a few seconds. BENCHMARK.json gives the reason for
# each workload.
WORKLOADS = {
    "corridor": Workload(
        "corridor",
        pool_size=800,
        vertices=(40, 50, 60), lifetime=(20,), edges_per_layer=(7.0,),
        deltas=(1, 2, 3), ells=(1, 2, 3), tail_pct=95.0, traced_queries=60),
    "sieve": Workload(
        "sieve",
        pool_size=6000,
        vertices=(9, 10), lifetime=(6,), edges_per_layer=(3.0,),
        deltas=(1, 2, 3), ells=(3, 4), tail_pct=97.0, traced_queries=900),
    "windowed": Workload(
        "windowed",
        pool_size=1200,
        vertices=(20, 25, 30), lifetime=(60, 70, 80), edges_per_layer=(2.0, 2.5, 3.0),
        deltas=(1, 2), ells=(0, 1, 2), tail_pct=98.0, traced_queries=300),
    "bulk": Workload(
        "bulk",
        pool_size=30,
        vertices=(300,), lifetime=(125, 2000), edges_per_layer=(24.0, 1.5),
        deltas=(1, 2, 3), ells=(0,), tail_pct=95.0, traced_queries=30),
}


def _cycled(values: tuple, i: int):
    return values[i % len(values)]


def build_pool(w: Workload, seed: int) -> list[Query]:
    """Generate, serialize and parse the workload's queries for one seed."""
    rng = random.Random(f"{w.name}:{seed}")
    pool: list[Query] = []
    while len(pool) < w.pool_size:
        i = len(pool)
        n = _cycled(w.vertices, i)
        generated = rtp.random_temporal_graph(
            n, _cycled(w.lifetime, i), _cycled(w.edges_per_layer, i),
            rng.getrandbits(63))
        text = rtp.serialize_temporal_graph(generated)
        delta = _cycled(w.deltas, i)
        ell = _cycled(w.ells, i // len(w.deltas))
        if w.name == "bulk":
            s, z = rng.sample(range(n), 2)
            pool.append(Query(text, generated, s, z, delta, 0, 0))
            continue
        g = rtp.parse_temporal_graph(text)
        for _ in range(20):
            s, z = rng.sample(range(n), 2)
            d = source_distance(reference_distances(g, z), s)
            if d != INF:
                pool.append(Query(text, g, s, z, delta, d + ell, rng.getrandbits(63)))
                break
    return pool


def run_op(w: Workload, q: Query):
    """One closed-loop operation: the library calls a user of the workload makes."""
    if w.name == "bulk":
        g = rtp.parse_temporal_graph(q.text)
        dt = rtp.compute_distances(g, q.z)
        return dt, rtp.restless_walk_distance(g, q.s, q.z, q.delta)
    if w.name == "windowed":
        cfg = FinderConfig(backend="brute", seed=q.finder_seed)
        return rtp.solve_windowed(q.graph, q.s, q.z, q.delta, q.k, ERROR_PROB, cfg)
    cfg = FinderConfig(backend="auto" if w.name == "corridor" else "sieve",
                       seed=q.finder_seed)
    return rtp.solve(q.graph, q.s, q.z, q.delta, q.k, ERROR_PROB, cfg)


def reference(w: Workload, q: Query):
    """The answer an operation must reproduce, computed outside the timed pass.

    Bulk: the distance table and the walk distance, on the graph as
    generated. Solve workloads: the shortest restless path length within k
    (INF for no) and the temporal distance of s.
    """
    table = reference_distances(q.graph, q.z)
    if w.name == "bulk":
        return table, reference_walk_distance(q.graph, q.s, q.z, q.delta)
    return (reference_shortest_path(q.graph, q.s, q.z, q.delta, q.k, table),
            source_distance(table, q.s))


FAILED, SHARED_MISS = "failed", "shared miss"


def check(w: Workload, q: Query, result, ref) -> tuple[str, str] | None:
    """None if the operation's answer agrees with the reference, else
    (FAILED or SHARED_MISS, why).

    A solve answer that misses the reference search's shortest path (a no,
    or a longer witness) is held to ``solve(backend="brute")`` on the same
    query: if that reproduces the answer, the miss is the library's own
    and is SHARED_MISS; any other disagreement, and every rejected witness,
    is FAILED.
    """
    if w.name == "bulk":
        dt, walk = result
        table, ref_walk = ref
        if dt.entries != table:
            return FAILED, "distance table differs from the reference sweep"
        if walk != ref_walk:
            return FAILED, f"walk distance {walk} != reference {ref_walk}"
        return None
    length, d = ref
    got = INF
    if result.decision:
        try:
            path = rtp.validate_restless_path(q.graph, result.witness.steps,
                                              q.s, q.z, q.delta)
        except rtp.PathValidationError as err:
            return FAILED, f"witness rejected: {err}"
        got = path.length
        if got > q.k:
            return FAILED, f"witness length {got} exceeds k={q.k}"
        if got < length:
            return FAILED, f"witness length {got} beats the reference search's {length}"
    if w.name != "windowed" and result.temporal_distance != d:
        return FAILED, f"temporal distance {result.temporal_distance} != reference {d}"
    # the first window with a solution answers, not the shortest overall
    if got == length or (w.name == "windowed" and length < got < INF):
        return None
    why = f"answer length {got}, reference search finds {length}"
    brute = _solve_brute(w, q)
    brute_got = brute.witness.length if brute.decision else INF
    if brute_got != got:
        return FAILED, f"{why}, backend=brute answers {brute_got}"
    return SHARED_MISS, f"{why}; backend=brute answers {brute_got} too"


def _solve_brute(w: Workload, q: Query):
    cfg = FinderConfig(backend="brute", seed=q.finder_seed)
    solver = rtp.solve_windowed if w.name == "windowed" else rtp.solve
    return solver(q.graph, q.s, q.z, q.delta, q.k, ERROR_PROB, cfg)


def is_yes(w: Workload, result) -> bool:
    if w.name == "bulk":
        return result[1] != INF
    return result.decision


# ---------------------------------------------------------------------------
# independent references, written from the definitions

def _layers(g) -> dict[int, list[tuple[int, int]]]:
    by_t: dict[int, list[tuple[int, int]]] = {}
    for e in g.time_edges:
        by_t.setdefault(e.t, []).append((e.u, e.v))
    return by_t


def reference_distances(g, z: int) -> dict[tuple[int, int], float]:
    """d(v, t) for every non-isolated appearance by a backward sweep.

    d(z, t) is 0; otherwise d(v, t) is the smaller of d at v's next later
    appearance and one more than d(u, t) over edges {u, v} at t, solved
    per layer by a unit-weight Dijkstra seeded with the later values.
    """
    later: dict[int, float] = {z: 0}
    table: dict[tuple[int, int], float] = {}
    layers = _layers(g)
    for t in sorted(layers, reverse=True):
        adj: dict[int, list[int]] = {}
        for u, v in layers[t]:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        value = {v: later.get(v, INF) for v in adj}
        heap = [(d, v) for v, d in value.items() if d != INF]
        heapq.heapify(heap)
        while heap:
            d, x = heapq.heappop(heap)
            if d > value[x]:
                continue
            for y in adj[x]:
                if d + 1 < value[y]:
                    value[y] = d + 1
                    heapq.heappush(heap, (d + 1, y))
        for v, d in value.items():
            table[(v, t)] = d
            later[v] = d
    return table


def source_distance(table: dict[tuple[int, int], float], s: int) -> float:
    times = [t for (v, t) in table if v == s]
    return table[(s, min(times))] if times else INF


def reference_walk_distance(g, s: int, z: int, delta: int) -> float:
    """Fewest steps of a delta-restless s-z walk, by breadth-first search
    over (vertex, arrival time) states; departures from s are free."""
    incident: dict[int, list[tuple[int, int]]] = {}
    for e in g.time_edges:
        incident.setdefault(e.u, []).append((e.t, e.v))
        incident.setdefault(e.v, []).append((e.t, e.u))
    for lst in incident.values():
        lst.sort()
    frontier = [(w, t) for t, w in incident.get(s, ())]
    seen = set(frontier)
    hops = 1
    while frontier:
        if any(v == z for v, _ in frontier):
            return hops
        nxt = []
        for v, arrived in frontier:
            if v == s:
                continue  # already expanded at hop 1 without a waiting bound
            lst = incident[v]
            i = bisect.bisect_left(lst, (arrived, -1))
            while i < len(lst) and lst[i][0] <= arrived + delta:
                t, w = lst[i]
                if (w, t) not in seen:
                    seen.add((w, t))
                    nxt.append((w, t))
                i += 1
        frontier = nxt
        hops += 1
    return INF


def reference_shortest_path(g, s: int, z: int, delta: int, k: int,
                            table: dict[tuple[int, int], float]) -> float:
    """Fewest steps of a delta-restless s-z path with at most k steps, or INF.

    Depth-first search over simple paths: the first step may take any
    stamp, every later one a stamp in [t, t + delta] after the previous
    stamp t. A branch is cut when its length plus the unrestricted
    temporal distance d(w, t) from ``table`` cannot beat the best found.
    """
    incident: dict[int, list[tuple[int, int]]] = {}
    for e in g.time_edges:
        incident.setdefault(e.u, []).append((e.t, e.v))
        incident.setdefault(e.v, []).append((e.t, e.u))
    for lst in incident.values():
        lst.sort()
    best = k + 1
    visited = {s}

    def extend(v: int, arrived: int, depth: int) -> None:
        nonlocal best
        lst = incident[v]
        i = 0 if depth == 0 else bisect.bisect_left(lst, (arrived, -1))
        while i < len(lst) and (depth == 0 or lst[i][0] <= arrived + delta):
            t, w = lst[i]
            i += 1
            if w == z:
                best = min(best, depth + 1)
            elif w not in visited and depth + 1 + table[(w, t)] < best:
                visited.add(w)
                extend(w, t, depth + 1)
                visited.discard(w)

    if s in incident:
        extend(s, 0, 0)
    return best if best <= k else INF
