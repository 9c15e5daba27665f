"""Find a restless temporal path of an exact length between two vertices.

Two backends behind one contract:

* brute: exhaustive DFS over time-edge extensions with chronological,
  waiting-time and simplicity pruning. Deterministic, zero error.
* sieve: counts waiting-time-bounded walks of the requested length in a
  dynamic program over (directed time-edge, hop) states, evaluated over
  GF(2^64) with fresh random vertex-label and edge-position coefficients,
  and sums the evaluations over all label subsets. Walks that revisit a
  vertex cancel in characteristic 2, so a nonzero total proves a simple
  path exists; a zero total is wrong with probability at most
  (2*length)/2^64 per trial when a path does exist. Yes answers are
  always certified by an explicit path, recovered by deleting time-edges
  one at a time while the decision stays yes.

A returned path is always structurally re-checked before it leaves this
module, so the yes side carries no error on either backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .gf2 import gf_mul, spread
from .rng import SeedStream
from .temporal_graph import RestlessPath, TimeEdge

_BACKENDS = ("brute", "sieve", "auto")
_TINY_EDGE_COUNT = 16
_TRIAL_FAILURE_LOG2 = 58  # per-trial miss probability is below 2**-58 for any feasible length


@dataclass(frozen=True)
class FinderConfig:
    """Knobs for the exact-length search.

    error_prob bounds the probability that the sieve reports absent when a
    path exists, and so sets its trial count. use_screens enables the
    cheap walk-feasibility pre-checks that skip provably hopeless sieve
    runs (disabled by benchmarks that measure raw sieve work).
    """

    backend: str = "auto"
    error_prob: float = 0.01
    seed: int = 0
    auto_threshold: int = 7
    use_screens: bool = True

    def __post_init__(self):
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}")
        if not 0.0 < self.error_prob < 1.0:
            raise ValueError("error_prob must be in (0, 1)")
        if self.auto_threshold < 1:
            raise ValueError("auto_threshold must be at least 1")


@dataclass
class FinderStats:
    """Mutable counters shared across finder calls.

    sieve_ops counts inner decision work only (transition sums plus
    coefficient products, per label subset); work spent re-deciding while
    peeling a witness out goes to extraction_ops.
    """

    calls: int = 0
    sieve_trials: int = 0
    sieve_ops: int = 0
    screened: int = 0
    extraction_decisions: int = 0
    extraction_ops: int = 0


def _steps_ok(steps: Sequence[TimeEdge], s: int, z: int, delta: int,
              length: int) -> bool:
    if len(steps) != length or not steps[0].touches(s):
        return False
    cur = s
    seen = {s}
    prev = None
    for step in steps:
        if not step.touches(cur):
            return False
        if prev is not None and not (prev <= step.t <= prev + delta):
            return False
        cur = step.other(cur)
        if cur in seen:
            return False
        seen.add(cur)
        prev = step.t
    return cur == z


def _as_path(steps: Sequence[TimeEdge], s: int, delta: int) -> RestlessPath:
    order = [s]
    cur = s
    for step in steps:
        cur = step.other(cur)
        order.append(cur)
    return RestlessPath(steps=tuple(steps), delta=delta, vertices=tuple(order))


def _single_step(edges: Sequence[TimeEdge], s: int, z: int,
                 delta: int) -> RestlessPath | None:
    want = (s, z) if s < z else (z, s)
    for edge in edges:  # canonical order: earliest stamp wins
        if edge.pair == want:
            return _as_path((edge,), s, delta)
    return None


def find_exact_restless_path_brute(edges: Sequence[TimeEdge], s: int, z: int,
                                   delta: int, length: int, *,
                                   stats: FinderStats | None = None
                                   ) -> RestlessPath | None:
    """Exhaustive search for a restless s-z path of exactly `length` steps
    over the time-edges `edges`, given in canonical order."""
    if s == z:
        raise ValueError("source and target must differ")
    if length < 1:
        raise ValueError("length must be at least 1")
    if delta < 1:
        raise ValueError("delta must be at least 1")
    if stats is not None:
        stats.calls += 1
    if length == 1:
        return _single_step(edges, s, z, delta)
    if len(edges) < length:
        return None
    incident: dict[int, list[TimeEdge]] = {}
    for edge in edges:
        incident.setdefault(edge.u, []).append(edge)
        incident.setdefault(edge.v, []).append(edge)

    steps: list[TimeEdge] = []
    visited = {s}

    def extend(cur: int, last_t: int | None, depth: int) -> bool:
        final = depth + 1 == length
        for edge in incident.get(cur, ()):
            if last_t is not None and not (last_t <= edge.t <= last_t + delta):
                continue
            nxt = edge.other(cur)
            if nxt in visited or (nxt == z) != final:
                continue
            steps.append(edge)
            if final:
                return True
            visited.add(nxt)
            if extend(nxt, edge.t, depth + 1):
                return True
            visited.discard(nxt)
            steps.pop()
        return False

    if not extend(s, None, 0):
        return None
    assert _steps_ok(steps, s, z, delta, length)
    return _as_path(steps, s, delta)


# ---------------------------------------------------------------------------
# sieve backend

@dataclass
class _Structure:
    """Layered directed-arc DP skeleton for one decision.

    layers[i] holds (head, edge_index, pred_positions) triples for hop
    i + 1; pred positions index into the previous layer. The final layer
    contains only arcs entering the target.
    """

    layers: list[list[tuple[int, int, tuple[int, ...]]]]
    label_vertices: tuple[int, ...]
    cost_per_subset: int
    feasible: bool


def _build_structure(edges: Sequence[TimeEdge], s: int, z: int, delta: int,
                     length: int, use_screens: bool) -> _Structure:
    arcs: list[tuple[int, int, int, int]] = []  # (tail, head, t, edge_index)
    for idx, edge in enumerate(edges):
        arcs.append((edge.u, edge.v, edge.t, idx))
        arcs.append((edge.v, edge.u, edge.t, idx))
    # walks never leave the target, never re-enter the source
    arcs = [a for a in arcs if a[0] != z and a[1] != s]

    def allowed(i: int, arc) -> bool:
        # a walk departs s exactly once and may enter z only at the end
        if (arc[0] == s) != (i == 1):
            return False
        return (arc[1] == z) == (i == length)

    layer_arcs: list[list[int]] = [[] for _ in range(length + 1)]
    for ai, arc in enumerate(arcs):
        for i in range(1, length + 1):
            if allowed(i, arc):
                layer_arcs[i].append(ai)

    def compatible(pa, pb) -> bool:
        return pa[1] == pb[0] and pa[2] <= pb[2] <= pa[2] + delta

    keep: list[set[int]] = [set() for _ in range(length + 1)]
    if use_screens:
        # forward pass: arcs reachable from the source in exactly i hops
        keep[1] = set(layer_arcs[1])
        for i in range(2, length + 1):
            prev = keep[i - 1]
            keep[i] = {ai for ai in layer_arcs[i]
                       if any(compatible(arcs[pi], arcs[ai]) for pi in prev)}
        # backward pass: drop arcs that cannot complete a full-length walk;
        # any surviving arc keeps at least one surviving predecessor
        alive = set(keep[length])
        for i in range(length - 1, 0, -1):
            alive = {ai for ai in keep[i]
                     if any(compatible(arcs[ai], arcs[ni]) for ni in alive)}
            keep[i] = alive
        feasible = bool(keep[length])
    else:
        for i in range(1, length + 1):
            keep[i] = set(layer_arcs[i])
        feasible = True

    layers: list[list[tuple[int, int, tuple[int, ...]]]] = []
    prev_order: list[int] = []
    cost = 0
    for i in range(1, length + 1):
        order = sorted(keep[i])
        prev_pos = {ai: p for p, ai in enumerate(prev_order)}
        entries = []
        for ai in order:
            if i == 1:
                preds: tuple[int, ...] = ()
            else:
                preds = tuple(prev_pos[pi] for pi in prev_order
                              if compatible(arcs[pi], arcs[ai]))
            entries.append((arcs[ai][1], arcs[ai][3], preds))
            cost += len(preds) + 2
        layers.append(entries)
        prev_order = order
    label_vertices = tuple(sorted({e[0] for layer in layers for e in layer}))
    return _Structure(layers=layers, label_vertices=label_vertices,
                      cost_per_subset=cost, feasible=feasible)


def _sieve_decide(structure: _Structure, length: int, trials: int,
                  stream: SeedStream, stats: FinderStats | None) -> bool:
    if not structure.feasible or not structure.layers[-1]:
        return False
    layers = structure.layers
    verts = structure.label_vertices
    for _ in range(trials):
        r = {v: [spread(stream.next()) for _ in range(length)] for v in verts}
        c = [[spread(stream.next()) for _ in layer] for layer in layers]
        y = {v: 0 for v in verts}
        total = 0
        ops = 0
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
            ops += structure.cost_per_subset
        if stats is not None:
            stats.sieve_trials += 1
            stats.sieve_ops += ops
        if total:
            return True
    return False


def _trials_for(error_prob: float) -> int:
    trials = 1
    miss = 2.0 ** -_TRIAL_FAILURE_LOG2
    while miss > error_prob:
        trials += 1
        miss *= 2.0 ** (-_TRIAL_FAILURE_LOG2)
    return trials


def find_exact_restless_path_sieve(edges: Sequence[TimeEdge], s: int, z: int,
                                   delta: int, length: int, cfg: FinderConfig, *,
                                   stats: FinderStats | None = None
                                   ) -> RestlessPath | None:
    """Randomized exact-length search; absent answers may be wrong with
    probability at most cfg.error_prob, returned paths are always valid."""
    if s == z:
        raise ValueError("source and target must differ")
    if length < 1:
        raise ValueError("length must be at least 1")
    if delta < 1:
        raise ValueError("delta must be at least 1")
    if stats is not None:
        stats.calls += 1
    if length == 1:
        return _single_step(edges, s, z, delta)
    if cfg.use_screens:
        vertices = {v for e in edges for v in e.pair}
        if (len(edges) < length or len(vertices) < length + 1
                or s not in vertices or z not in vertices):
            if stats is not None:
                stats.screened += 1
            return None

    stream = SeedStream(cfg.seed)
    trials = _trials_for(cfg.error_prob)

    structure = _build_structure(edges, s, z, delta, length, cfg.use_screens)
    if cfg.use_screens and not structure.feasible:
        if stats is not None:
            stats.screened += 1
        return None
    if not _sieve_decide(structure, length, trials, stream, stats):
        return None

    # a path certainly exists: peel away time-edges while the answer stays yes
    remaining = list(edges)
    sub_stats = FinderStats()
    i = 0
    while i < len(remaining):
        candidate = remaining[:i] + remaining[i + 1:]
        sub = _build_structure(candidate, s, z, delta, length, True)
        if not sub.feasible:
            i += 1
            continue
        sub_stats.extraction_decisions += 1
        if _sieve_decide(sub, length, trials, stream, sub_stats):
            remaining = candidate
        else:
            i += 1
    if stats is not None:
        stats.extraction_decisions += sub_stats.extraction_decisions
        stats.extraction_ops += sub_stats.sieve_ops
        stats.sieve_trials += sub_stats.sieve_trials
    found = find_exact_restless_path_brute(remaining, s, z, delta, length)
    if found is None or not _steps_ok(found.steps, s, z, delta, length):
        return None
    return found


def find_exact_restless_path(edges: Sequence[TimeEdge], s: int, z: int,
                             delta: int, length: int, cfg: FinderConfig, *,
                             stats: FinderStats | None = None
                             ) -> RestlessPath | None:
    """Dispatch to the configured backend; auto picks brute for short or
    tiny searches and the sieve otherwise."""
    backend = cfg.backend
    if backend == "auto":
        if length < cfg.auto_threshold or len(edges) <= _TINY_EDGE_COUNT:
            backend = "brute"
        else:
            backend = "sieve"
    if backend == "brute":
        return find_exact_restless_path_brute(edges, s, z, delta, length, stats=stats)
    return find_exact_restless_path_sieve(edges, s, z, delta, length, cfg, stats=stats)
