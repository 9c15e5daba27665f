"""Find a restless temporal path of an exact length between two vertices.

Two backends behind one contract:

* brute: exhaustive DFS over a time-sorted incident index with
  chronological, waiting-time and simplicity pruning, which a table fill
  runs in place under a corridor's keep rule over a range of lengths, for
  the shortest connector. Deterministic, zero error.
* sieve: counts waiting-time-bounded walks of the requested length in a
  dynamic program over (directed time-edge, hop) states, evaluated over
  GF(2^64) with fresh random vertex-label and edge-position coefficients,
  and sums the evaluations over all label subsets. Walks that revisit a
  vertex cancel in characteristic 2, so a nonzero total proves a simple
  path exists; a zero total is wrong with probability at most
  (2*length)/2^64 per trial when a path does exist. Its arc screen reads
  the DFS's incident index, expanding the pairs the DFS would within the
  same hop window, and names each time-edge by its canonical key
  (t, u, v), so its answers do not depend on the input order. Yes
  answers are always certified by an explicit path, peeled out of the
  time-edges the screen kept by deleting blocks of them, halved on a
  failed deletion, while the decision stays yes; the path is the one the
  DFS finds over the time-edges left. Two cases need no trial at all.
  When the screened walks hold fewer than `length` distinct heads or
  time-edges, no path fits them: the no is exact. When no screened walk
  can revisit a vertex (no vertex heads two hops at least two apart),
  every walk is a path: the yes is exact, and the peel's time-edges come
  from one least-weight pass over the layers.

Which probes may reach the sieve is one rule, ``first_sieve_length``: the
dispatcher sends shorter probes to brute, and a table fill searches all of
them at once in place without building a corridor.

Every returned path is built by check_restless_path against the searched
edge set, the same checker validate_restless_path runs on witnesses, so
the yes side carries no error on either backend, with or without -O.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .gf2 import gf_mul, spread
from .rng import SeedStream
from .temporal_graph import RestlessPath, TemporalGraph, TimeEdge, check_restless_path

_BACKENDS = ("brute", "sieve", "auto")
_TINY_EDGE_COUNT = 16
_AUTO_FIRST_SIEVE = 7  # the shortest probe backend auto may send to the sieve
_TRIAL_FAILURE_LOG2 = 58  # per-trial miss probability bound, for length <= 32 (_trials_for)


@dataclass(frozen=True)
class FinderConfig:
    """Knobs for the exact-length search.

    backend picks brute, sieve or auto; which probes may reach the sieve
    follows from it alone (``first_sieve_length``). error_prob bounds the
    probability that the sieve reports absent when a path exists, and so
    sets its trial count; solve and solve_windowed replace it with their
    per-call share of the query's p. seed feeds the sieve's coefficients.
    """

    backend: str = "auto"
    error_prob: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}")
        if not 0.0 < self.error_prob < 1.0:
            raise ValueError("error_prob must be in (0, 1)")


@dataclass
class SolveStats:
    """Mutable counters of one solve, shared by every finder call it makes.

    sieve_ops counts inner decision work only (transition sums plus
    coefficient products, per label subset); work spent re-deciding while
    peeling a witness out goes to extraction_ops. The sieve_* and
    extraction_* counters count randomized decisions only: a sieve call
    whose screened walks cannot revisit a vertex is certified without
    one and moves none of them. screened counts the sieve calls answered
    no by the screen alone: their screened walks hold fewer than `length`
    distinct heads or time-edges, so no path fits them. areas_built,
    corridor_edges (time-edges summed over the corridors built),
    table_entries and elapsed_seconds are filled by the solver. A table
    fill searches each link's lengths below ``first_sieve_length`` in place
    with one shortest-connector search, so areas_built counts only
    corridors with a probe that may reach the sieve and that hold both ends
    of their search: the source filter (``areas.source_admission``) reads
    the source side alone, then each link it passes builds one rule
    (``areas.keep_rule``), which ``areas.holds_ends`` asks about both ends.
    finder_calls counts the connector searches run: each finder call
    counts itself, and a table fill adds one per in-place search, one per
    link whose corridor holds both ends. table_entries counts every entry
    of the table, and entries_visited the entries the fill visited: all of
    them (those off the source with INF distance keep INF with no link
    loop), except on ``solve``'s table path, where the walk search's
    forward bound picks, before the fill runs, the source's
    appearances and the entries a chain within the budget can pass; only
    their links are counted in finder_calls and areas_built.
    """

    finder_calls: int = 0
    sieve_trials: int = 0
    sieve_ops: int = 0
    screened: int = 0
    extraction_decisions: int = 0
    extraction_ops: int = 0
    areas_built: int = 0
    corridor_edges: int = 0
    table_entries: int = 0
    entries_visited: int = 0
    elapsed_seconds: float = 0.0


def check_ends(s: int, z: int, delta: int) -> None:
    """The rule every s-z entry point shares: distinct ends, delta >= 1."""
    if s == z:
        raise ValueError("source and target must differ")
    if delta < 1:
        raise ValueError("delta must be at least 1")


def incident_index(edges: Iterable[TimeEdge]) -> dict[int, list[tuple[int, int]]]:
    """Vertex -> the (t, neighbour) pairs of its time-edges, sorted, which
    is each vertex's canonical order, whatever the order of `edges`."""
    index: dict[int, list[tuple[int, int]]] = {}
    for edge in edges:
        index.setdefault(edge.u, []).append((edge.t, edge.v))
        index.setdefault(edge.v, []).append((edge.t, edge.u))
    for pairs in index.values():
        pairs.sort()  # linear when `edges` is in canonical order
    return index


# graph_index's one entry: (weak reference to a graph, its time-edges,
# their incident_index), or None
_shared: tuple[weakref.ref, tuple[TimeEdge, ...], dict[int, list[tuple[int, int]]]] | None = None


def graph_index(g: TemporalGraph) -> dict[int, list[tuple[int, int]]]:
    """``incident_index(g.time_edges)``, shared while g lives: a query's
    searches, its distance table and its fill, and a distance table and
    walk distance of one graph, all read one index, built once.

    One slot holds the last graph indexed, weakly, with its time-edges and
    their index. A call hits iff the slot's graph is g and its time-edges
    are still g's. A miss drops the old entry, then builds and stores g's;
    g's death drops its entry. So at most one index is held, and none
    outlives its graph. Readers never mutate the index. The slot is read
    and replaced whole, so threads that index different graphs may miss
    more often, but never read another graph's index."""
    global _shared
    entry = _shared
    if entry is not None and entry[0]() is g and entry[1] is g.time_edges:
        return entry[2]
    _shared = None
    edges = g.time_edges
    index = incident_index(edges)
    _shared = (weakref.ref(g, _drop_shared), edges, index)
    return index


def _drop_shared(ref: weakref.ref) -> None:
    """The callback of a shared graph's death: empty the slot if it still
    holds that graph."""
    global _shared
    entry = _shared
    if entry is not None and entry[0] is ref:
        _shared = None


def search_index(incident: dict[int, list[tuple[int, int]]], s: int, z: int,
                 delta: int, lo: int, hi: int, *,
                 keep: Callable[[int, int, int], bool] | None = None,
                 t_lo: int = 0, t_hi: float = math.inf) -> RestlessPath | None:
    """Exhaustive DFS for the shortest restless s-z path with lo <= length
    <= hi over an ``incident_index``: the first step within [t_lo, t_hi],
    each later one within [last_t, min(last_t + delta, t_hi)], and with
    ``keep`` only over time-edges it passes, so a corridor is searched in
    place. Pairs are tried in index order, the same over the kept edges
    alone; the DFS keeps an explicit stack, so a path's length is not
    bounded by the interpreter's recursion limit.

    A step into z ends a path at any depth in [lo, hi] and is skipped
    below lo. After a path of length L the DFS allows only shorter ones
    (hi = L - 1) and stops once hi < lo. Among paths of the least length
    L*, the one returned is the first in index order, which is the path the
    DFS over [L*, L*] returns: every bound set before it is found is at
    least L*, so no walk of up to L* hops is cut before it."""
    def searched(edge: TimeEdge) -> bool:  # in the index, and kept
        return ((edge.t, edge.v) in pairs_between(incident.get(edge.u, []), edge.t, edge.t)
                and (keep is None or keep(edge.u, edge.v, edge.t)))

    best = None
    steps: list[tuple[int, int, int]] = []
    visited = {s}
    cur = s
    # stack[i]: the untried pairs of hop i + 1, leaving cur when i = len(steps)
    stack = [iter(pairs_between(incident.get(s, []), t_lo, t_hi))]
    while stack and lo <= hi:
        depth = len(stack)
        for t, nxt in stack[-1] if depth <= hi else ():
            # z ends a path from depth lo on; other vertices lead on below hi
            if nxt in visited or (depth < lo if nxt == z else depth == hi):
                continue
            if keep is not None and not keep(cur, nxt, t):
                continue
            if nxt == z:
                best = [*steps, (cur, nxt, t)]
                hi = depth - 1  # the next pass of the loop backs out of this hop
                break
            steps.append((cur, nxt, t))
            visited.add(nxt)
            cur = nxt
            stack.append(iter(pairs_between(incident.get(nxt, []), t, min(t + delta, t_hi))))
            break
        else:
            stack.pop()
            if steps:
                cur, nxt, _t = steps.pop()
                visited.discard(nxt)
    if best is None:
        return None
    return check_restless_path(searched, [TimeEdge(*step) for step in best], s, z, delta)


def pairs_between(pairs: list[tuple[int, int]], t_lo: int,
                  t_hi: float) -> list[tuple[int, int]]:
    """The (t, neighbour) pairs of one index list with t_lo <= t <= t_hi."""
    lo = bisect_left(pairs, (t_lo,))
    return pairs[lo:bisect_right(pairs, (t_hi, math.inf), lo=lo)]


def find_exact_restless_path_brute(edges: Sequence[TimeEdge], s: int, z: int,
                                   delta: int, length: int, *,
                                   stats: SolveStats | None = None
                                   ) -> RestlessPath | None:
    """Exhaustive search for a restless s-z path of exactly `length` steps
    over the time-edges `edges`, in any order: the first in index order, as
    ``search_index`` over their index at [length, length] finds it."""
    check_ends(s, z, delta)
    if length < 1:
        raise ValueError("length must be at least 1")
    if stats is not None:
        stats.finder_calls += 1
    return search_index(incident_index(edges), s, z, delta, length, length)


# ---------------------------------------------------------------------------
# sieve backend
#
# A structure is a list of layers, one per hop: layers[i] holds, in arc
# order, (head, key, pred_positions) triples for hop i + 1. An arc is one
# direction of a time-edge, named by the time-edge's canonical key
# (t, u, v) with u < v; arc order is key order, u->v before v->u. Pred
# positions index into the previous layer. The final layer contains only
# arcs entering the target. A structure no path fits is empty, and its
# decision a certain no.

_Key = tuple[int, int, int]
_Layers = list[list[tuple[int, _Key, tuple[int, ...]]]]


def _kept_in(keys: set[_Key]) -> Callable[[int, int, int], bool]:
    """The keep rule of the time-edges whose keys are in `keys`."""
    return lambda x, y, t: (t, x, y) in keys or (t, y, x) in keys


def _build_structure(incident: dict[int, list[tuple[int, int]]], s: int, z: int,
                     delta: int, length: int,
                     keep: Callable[[int, int, int], bool] | None = None) -> _Layers:
    """Layer i + 1 holds, in arc order, the arcs at hop i + 1 of some walk
    of the full length over an ``incident_index``, expanding only
    time-edges that ``keep`` passes, as ``search_index`` does. A forward
    pass takes layer 1 from s's pairs and layer i + 1 from the pairs that
    leave a head of layer i within [t, t + delta] of an arc into it, the
    DFS's hop window (``pairs_between``), recording those arcs as preds;
    one backward pass from z then drops every arc no later arc follows. A
    walk leaves s only at hop 1 and enters z only at the last. A path of
    `length` hops enters `length` distinct vertices over `length` distinct
    time-edges, so when the kept arcs hold fewer distinct heads or
    time-edges than that, the structure is []."""
    def arcs(x: int, pairs: list[tuple[int, int]], hop: int, arrivals: list[tuple[int, int]]):
        # the kept arcs x -> y at hop, each with the arrivals (t, position) it may follow;
        # a walk never re-enters s and enters z only at its last hop
        for t, y in pairs:
            if y != s and (y == z) == (hop == length) and (keep is None or keep(x, y, t)):
                yield y, ((t, x, y) if x < y else (t, y, x)), tuple(
                    p for t_in, p in arrivals if t_in <= t <= t_in + delta)

    def order(arc):  # by key, then u->v before v->u
        return arc[1], arc[0] == arc[1][1]

    layers = [sorted(arcs(s, incident.get(s, []), 1, []), key=order)]
    for hop in range(2, length + 1):
        into: dict[int, list[tuple[int, int]]] = {}  # head -> (t, position), by t
        for pos, (head, (t, _u, _v), _p) in enumerate(layers[-1]):
            into.setdefault(head, []).append((t, pos))
        layers.append(sorted((arc for x, ins in into.items() for arc in arcs(
            x, pairs_between(incident[x], ins[0][0], ins[-1][0] + delta), hop, ins)
            if arc[2]), key=order))  # an arc in a gap between windows follows none
    for i in range(length - 1, 0, -1):
        needed = sorted({p for _h, _k, preds in layers[i] for p in preds})
        at = {p: j for j, p in enumerate(needed)}
        layers[i] = [(h, k, tuple(at[p] for p in preds)) for h, k, preds in layers[i]]
        layers[i - 1] = [layers[i - 1][p] for p in needed]
    on = [arc for layer in layers for arc in layer]
    if min(len({h for h, _k, _p in on}), len({k for _h, k, _p in on})) < length:
        return []
    return layers


def _certified_path(layers: _Layers) -> set[_Key] | None:
    """For a non-empty structure: the keys of the least walk, weight
    2^(m-1-r) on the time-edge of rank r among the m keys of the layers,
    when no vertex heads two layers at least two apart; else None."""
    first: dict[int, int] = {}
    for i, layer in enumerate(layers):
        for head, _k, _p in layer:
            if i - first.setdefault(head, i) >= 2:
                return None
    keys = sorted({key for layer in layers for _h, key, _p in layer}, reverse=True)
    weight = {key: 1 << r for r, key in enumerate(keys)}  # an earlier key weighs more
    cost = [weight[key] for _h, key, _p in layers[0]]
    back = []  # back[i][pos]: the position in layer i that arc pos of layer i + 1 follows
    for layer in layers[1:]:
        picks = [min(preds, key=cost.__getitem__) for _h, _k, preds in layer]
        cost = [cost[p] + weight[key] for p, (_h, key, _p) in zip(picks, layer)]
        back.append(picks)
    pos = min(range(len(cost)), key=cost.__getitem__)
    path = {layers[-1][pos][1]}
    for layer, picks in zip(reversed(layers[:-1]), reversed(back)):
        pos = picks[pos]
        path.add(layer[pos][1])
    return path


def _sieve_decide(layers: _Layers, length: int, trials: int, stream: SeedStream,
                  stats: SolveStats) -> tuple[bool, int]:
    """Up to `trials` randomized trials over layers with a non-empty final
    layer; counts them in stats.sieve_trials and returns the decision and
    its work (transition sums plus coefficient products, per subset)."""
    verts = sorted({head for layer in layers for head, _e, _p in layer})
    cost_per_subset = sum(len(p) + 2 for layer in layers for _h, _e, p in layer)
    ops = 0
    for _ in range(trials):
        r = {v: [spread(stream.next()) for _ in range(length)] for v in verts}
        c = [[spread(stream.next()) for _ in layer] for layer in layers]
        y = {v: 0 for v in verts}
        total = 0
        prev_gray = 0
        for g_idx in range(1 << length):
            gray = g_idx ^ (g_idx >> 1)
            flipped = gray ^ prev_gray
            prev_gray = gray
            if flipped:
                j = flipped.bit_length() - 1
                for v in verts:
                    y[v] ^= r[v][j]
            if gray == 0:
                continue
            dp = [gf_mul(c[0][pos], y[head])
                  for pos, (head, _e, _p) in enumerate(layers[0])]
            for i in range(1, length):
                ci = c[i]
                nxt = []
                for pos, (head, _e, preds) in enumerate(layers[i]):
                    acc = 0
                    for p in preds:
                        acc ^= dp[p]
                    if acc:
                        acc = gf_mul(gf_mul(acc, ci[pos]), y[head])
                    nxt.append(acc)
                dp = nxt
            for val in dp:
                total ^= val
            ops += cost_per_subset
        stats.sieve_trials += 1
        if total:
            return True, ops
    return False, ops


def _trials_for(error_prob: float) -> int:
    """Trials that bring the miss probability of one decision within
    error_prob. A trial evaluates a polynomial of degree 2*length over
    GF(2^64), so by Schwartz-Zippel it misses a path with probability at
    most 2*length/2^64, which is at most 2^-58 for length <= 32. Longer
    sieve probes are out of reach anyway: a trial sums 2^length subsets."""
    trials = 1
    miss = 2.0 ** -_TRIAL_FAILURE_LOG2
    while miss > error_prob:
        trials += 1
        miss *= 2.0 ** (-_TRIAL_FAILURE_LOG2)
    return trials


def find_exact_restless_path_sieve(edges: Sequence[TimeEdge], s: int, z: int,
                                   delta: int, length: int, cfg: FinderConfig, *,
                                   seed: int | None = None,
                                   stats: SolveStats | None = None
                                   ) -> RestlessPath | None:
    """Randomized exact-length search; absent answers may be wrong with
    probability at most cfg.error_prob, returned paths are always valid.
    seed, when given, replaces cfg.seed for this call. Every length is
    answered by the sieve itself; the dispatcher and the table fill send
    length-1 probes to brute (``first_sieve_length``). Every structure and
    search of the call reads one ``incident_index`` of `edges`, given in
    any order, and names time-edges by their canonical keys.

    After a yes, which is certain, the witness is the path left by deleting
    time-edges one at a time in canonical key order, whatever the input
    order, each deletion kept iff the sieve still says yes. Under exact
    decisions, fewer decisions leave the same edge set. (1) Peeling starts
    from the screen's survivors, the time-edges on a kept arc; any other is
    on no path and would go anyway. (2) A contiguous block of them goes at
    once iff one at a time would delete each, as every set in between
    holds the final one; else its first half, then its second, is peeled
    (after a wholly deleted first half the second cannot go whole). (3)
    Keeping only a yes candidate's survivors never drops a time-edge kept
    earlier: it is on every later path. A candidate is screened over the
    index under the keep rule "key still a candidate". Once `length` edges
    remain they are the path; a false negative (below 2^-58 per trial)
    only leaves extra ones. The witness is the path the in-place DFS
    (``search_index`` at [length, length]) finds over the edges left.

    A call makes no decision at all when its structure is empty, as no
    path fits the screened walks, or passes a certificate. A screened walk
    leaves s only at hop 1 and enters z only at its last hop, and with no
    self-loops it can revisit a vertex v only if v heads hops i and
    j >= i + 2. If no vertex heads two layers at least two apart, every
    walk is a path, so a non-empty structure is a certain yes; lengths up
    to 3 always qualify. The peel's edge set is then computed directly:
    deleting in key order while a path survives leaves the path whose
    time-edge indicator vector is lexicographically least, and as a path
    uses each time-edge once, that is the walk of least total weight with
    weight 2^(m-1-r) on the time-edge of rank r of m, found in one pass
    over the layers with back-pointers. Such a call draws nothing from its
    seed stream. At length 1 that witness is the last s-z time-edge in
    canonical order.
    """
    check_ends(s, z, delta)
    if length < 1:
        raise ValueError("length must be at least 1")
    if stats is None:
        stats = SolveStats()
    stats.finder_calls += 1
    incident = incident_index(edges)
    layers = _build_structure(incident, s, z, delta, length)
    if not layers:
        stats.screened += 1
        return None
    path = _certified_path(layers)
    if path is not None:
        return search_index(incident, s, z, delta, length, length, keep=_kept_in(path))
    stream = SeedStream(cfg.seed if seed is None else seed)
    trials = _trials_for(cfg.error_prob)
    found, ops = _sieve_decide(layers, length, trials, stream, stats)
    stats.sieve_ops += ops
    if not found:
        return None
    remaining = {key for layer in layers for _h, key, _p in layer}  # the survivors

    def peel(block: list[_Key], doomed: bool) -> bool:  # True: none of block is left
        nonlocal remaining
        block = [key for key in block if key in remaining]
        if not block:
            return True
        if len(remaining) == length:  # the path's own time-edges
            return False
        if not doomed:
            sub = _build_structure(incident, s, z, delta, length,
                                   _kept_in(remaining.difference(block)))
            if sub:
                stats.extraction_decisions += 1
                found, ops = _sieve_decide(sub, length, trials, stream, stats)
                stats.extraction_ops += ops
                if found:
                    remaining = {key for layer in sub for _h, key, _p in layer}
                    return True
        if len(block) == 1:
            return False
        half = len(block) // 2
        first = peel(block[:half], False)
        return peel(block[half:], first) and first

    peel(sorted(remaining), True)  # deleting every time-edge leaves no path
    return search_index(incident, s, z, delta, length, length, keep=_kept_in(remaining))


def first_sieve_length(cfg: FinderConfig) -> float:
    """The shortest probe length that may reach the sieve under cfg: 2 for
    backend sieve, ``_AUTO_FIRST_SIEVE`` (7) for auto, and never (inf) for
    brute. Shorter probes go to brute; a length-1 probe only scans the
    source's time-edges. On auto, a tiny edge set also goes to brute."""
    return {"sieve": 2, "auto": _AUTO_FIRST_SIEVE}.get(cfg.backend, math.inf)


def find_exact_restless_path(edges: Sequence[TimeEdge], s: int, z: int,
                             delta: int, length: int, cfg: FinderConfig, *,
                             seed: int | None = None,
                             stats: SolveStats | None = None
                             ) -> RestlessPath | None:
    """Dispatch to the configured backend: probes shorter than
    ``first_sieve_length(cfg)`` (on auto, shorter than 7), and on auto
    searches over at most 16 time-edges, go to brute, the rest to the
    sieve. Either way the call counts one finder call. seed, when given,
    replaces cfg.seed for this call, so a caller drawing one seed per
    probe need not build a config per probe."""
    if length < first_sieve_length(cfg) or (
            cfg.backend == "auto" and len(edges) <= _TINY_EDGE_COUNT):
        return find_exact_restless_path_brute(edges, s, z, delta, length, stats=stats)
    return find_exact_restless_path_sieve(edges, s, z, delta, length, cfg,
                                          seed=seed, stats=stats)
