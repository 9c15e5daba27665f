"""Independent brute-force re-implementations used as test oracles.

Everything here works straight from the definitions by naive enumeration
over raw (u, v, t) triples, or over a path and a distance table the
library returned, sharing no code path with the library.
"""

from __future__ import annotations

from dataclasses import dataclass

INF = float("inf")


def edge_triples(g) -> list[tuple[int, int, int]]:
    return [(e.u, e.v, e.t) for e in g.time_edges]


def edges_at(g, t) -> frozenset[tuple[int, int]]:
    """The (u, v) pairs of the time-edges at stamp t."""
    return frozenset((u, v) for u, v, s in edge_triples(g) if s == t)


def graph_size(g) -> int:
    """|V| plus, per time step 1..lifetime, its edge count (at least 1)."""
    return g.vertex_count + sum(max(1, len(edges_at(g, t))) for t in range(1, g.lifetime + 1))


def endpoints(edges) -> frozenset[int]:
    """The vertices that some time-edge of `edges` touches."""
    return frozenset(v for e in edges for v in (e.u, e.v))


def check_restless_sequence(triples, edge_set, s, z, delta) -> bool:
    """Walk the three defining conditions over a candidate step sequence."""
    if not triples:
        return False
    for u, v, t in triples:
        if (u, v, t) not in edge_set and (v, u, t) not in edge_set:
            return False
    cur = s
    seen = [s]
    for u, v, t in triples:
        if cur == u:
            cur = v
        elif cur == v:
            cur = u
        else:
            return False
        seen.append(cur)
    if cur != z or len(set(seen)) != len(seen):
        return False
    times = [t for _, _, t in triples]
    for a, b in zip(times, times[1:]):
        if not (a <= b <= a + delta):
            return False
    return True


def restless_path_lengths(triples, s, z, delta, max_len) -> set[int]:
    """Every exact length <= max_len achieved by some restless s-z path."""
    found: set[int] = set()

    def go(cur, last_t, visited, depth):
        if cur == z and depth >= 1:
            found.add(depth)
            return
        if depth >= max_len:
            return
        for u, v, t in triples:
            if cur == u:
                nxt = v
            elif cur == v:
                nxt = u
            else:
                continue
            if last_t is not None and not (last_t <= t <= last_t + delta):
                continue
            if nxt in visited:
                continue
            go(nxt, t, visited | {nxt}, depth + 1)

    go(s, None, frozenset({s}), 0)
    return found


def shortest_restless_path(triples, s, z, delta, max_len):
    lengths = restless_path_lengths(triples, s, z, delta, max_len)
    return min(lengths) if lengths else None


def enumerate_restless_paths(triples, s, z, delta, max_len):
    """Yield each restless s-z path with at most max_len steps."""
    out: list[tuple[tuple[int, int, int], ...]] = []

    def go(cur, last_t, visited, steps):
        if cur == z and steps:
            out.append(tuple(steps))
            return
        if len(steps) >= max_len:
            return
        for u, v, t in triples:
            if cur == u:
                nxt = v
            elif cur == v:
                nxt = u
            else:
                continue
            if last_t is not None and not (last_t <= t <= last_t + delta):
                continue
            if nxt in visited:
                continue
            steps.append((u, v, t))
            go(nxt, t, visited | {nxt}, steps)
            steps.pop()

    go(s, None, frozenset({s}), [])
    return out


def temporal_distance(triples, v, t_from, z, max_len):
    """Shortest plain temporal v-z path departing no earlier than t_from."""
    if v == z:
        return 0
    best = [INF]

    def go(cur, last_t, visited, depth):
        if depth >= best[0] or depth >= max_len:
            return
        for u, w, t in triples:
            if cur == u:
                nxt = w
            elif cur == w:
                nxt = u
            else:
                continue
            if t < (t_from if last_t is None else last_t):
                continue
            if nxt in visited:
                continue
            if nxt == z:
                best[0] = min(best[0], depth + 1)
                continue
            go(nxt, t, visited | {nxt}, depth + 1)

    go(v, None, frozenset({v}), 0)
    return best[0]


def restless_walk_min(triples, s, z, delta, cap):
    """Shortest restless s-z walk by breadth-first search over
    (vertex, last stamp) states; revisits allowed."""
    if s == z:
        return 0
    frontier = {(s, None)}
    seen = set(frontier)
    hops = 0
    while frontier and hops < cap:
        hops += 1
        nxt = set()
        for cur, last_t in frontier:
            for u, v, t in triples:
                if cur == u:
                    other = v
                elif cur == v:
                    other = u
                else:
                    continue
                if last_t is not None and not (last_t <= t <= last_t + delta):
                    continue
                if other == z:
                    return hops
                state = (other, t)
                if state not in seen:
                    seen.add(state)
                    nxt.add(state)
        frontier = nxt
    return INF


def walk_state_hops(triples, s, z, delta, t_lo, t_hi, bound):
    """Fewest hops of a delta-restless walk from s, every step in
    [t_lo, t_hi], to each (vertex, arrival stamp) state within ``bound``
    hops, by breadth-first search over states. The walk never steps back
    into s and never leaves z; other vertices may repeat."""
    hops = {}
    frontier = {(s, None)}
    level = 0
    while frontier and level < bound:
        level += 1
        nxt = set()
        for cur, last_t in frontier:
            for u, v, t in triples:
                if cur not in (u, v) or not t_lo <= t <= t_hi:
                    continue
                if last_t is not None and not last_t <= t <= last_t + delta:
                    continue
                other = v if cur == u else u
                if other == s or (other, t) in hops:
                    continue
                hops[other, t] = level
                if other != z:
                    nxt.add((other, t))
        frontier = nxt
    return hops


def static_min(triples, s, z):
    """Hop distance in the flattened graph by breadth-first search."""
    if s == z:
        return 0
    adj: dict[int, set[int]] = {}
    for u, v, _ in triples:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    seen = {s}
    frontier = [s]
    hops = 0
    while frontier:
        hops += 1
        nxt = []
        for v in frontier:
            for w in adj.get(v, ()):
                if w == z:
                    return hops
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return INF


def peel_witness(triples, s, z, delta, length):
    """The sieve's witness under exact decisions: delete time-edges one at a
    time in the given order, keeping a deletion iff a restless s-z path of
    exactly `length` steps survives it, and return that path's steps (None
    when there is none). One decision per time-edge, each by enumeration;
    the sieve's block peeling must leave the same path."""
    paths = [steps for steps in enumerate_restless_paths(triples, s, z, delta, length)
             if len(steps) == length]
    if not paths:
        return None

    def holds_path(candidate):
        kept = set(candidate)
        return any(kept.issuperset(steps) for steps in paths)

    remaining = list(triples)
    i = 0
    while i < len(remaining):
        candidate = remaining[:i] + remaining[i + 1:]
        if holds_path(candidate):
            remaining = candidate
        else:
            i += 1
    (witness,) = [steps for steps in paths if set(remaining).issuperset(steps)]
    return witness


@dataclass
class SeparatorTrace:
    """Which visited positions of a known path split all earlier from all
    later positions by strict distance comparisons."""

    indices: tuple[int, ...]
    d_values: tuple[int | float, ...]


def _departure_distances(path, dt) -> list[int | float]:
    # position i departs at the stamp of step i+1; the last position keeps
    # its arrival stamp
    times = [step.t for step in path.steps]
    out = []
    for i, v in enumerate(path.vertices):
        dep = times[i] if i < len(times) else times[-1]
        out.append(dt.entries[(v, dep)])
    return out


def separator_trace(path, dt) -> SeparatorTrace:
    """Mark every position whose departure-time distance is strictly below
    all earlier positions' and strictly above all later positions'."""
    dvals = _departure_distances(path, dt)
    indices = []
    for i, di in enumerate(dvals):
        if all(dj > di for dj in dvals[:i]) and all(dj < di for dj in dvals[i + 1:]):
            indices.append(i)
    return SeparatorTrace(indices=tuple(indices), d_values=tuple(dvals))


def arc_layers(triples, s, z, delta, length, screens):
    """The sieve's layered arc skeleton by definition: per hop 1..length,
    the (head, key, pred positions) of each arc a walk may take.

    An arc is one direction of a time-edge, whose key is (t, min, max) of
    its triple; arcs are listed in key order, whatever the order of
    `triples`, the min->max direction first. A walk of `length` arcs
    departs s at its first arc only, enters z at its last only, never
    enters s nor leaves z, and each later arc leaves the previous head
    within [t, t + delta] of the previous stamp. Without screens, hop i holds
    every arc those roles allow there, and an arc's preds are the arcs of
    hop i - 1 that it may follow. With screens, hop i holds the arcs at
    hop i of some whole walk, found by enumerating every walk, and an
    arc's preds are the arcs just before it in one of them.
    """
    keys = sorted((t, min(u, v), max(u, v)) for u, v, t in triples)
    arcs = [(x, y, t, (t, u, v)) for t, u, v in keys for x, y in ((u, v), (v, u))]

    def fits(arc, hop):
        x, y = arc[0], arc[1]
        return (x != z and y != s
                and (x == s) == (hop == 1) and (y == z) == (hop == length))

    def follows(p, a):
        return p[1] == a[0] and p[2] <= a[2] <= p[2] + delta

    if screens:
        on = [set() for _ in range(length)]
        pairs = set()

        def walk(prefix):
            if len(prefix) == length:
                for hop, a in enumerate(prefix):
                    on[hop].add(a)
                pairs.update(zip(prefix, prefix[1:]))
                return
            for a in arcs:
                if fits(a, len(prefix) + 1) and (not prefix or follows(prefix[-1], a)):
                    walk(prefix + [a])

        walk([])
        layers = [[a for a in arcs if a in on[hop]] for hop in range(length)]
    else:
        layers = [[a for a in arcs if fits(a, hop)] for hop in range(1, length + 1)]
        pairs = {(p, a) for p in arcs for a in arcs if follows(p, a)}
    out = []
    for hop, layer in enumerate(layers):
        prev = layers[hop - 1] if hop else []
        out.append([(a[1], a[3], tuple(j for j, p in enumerate(prev) if (p, a) in pairs))
                    for a in layer])
    return out
