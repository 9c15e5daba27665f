"""Core temporal-graph model: parsing, validation, subgraphs.

A temporal graph is a fixed vertex set plus one undirected edge set per
discrete time step 1..lifetime, stored as one time-sorted tuple of
time-edges. The atoms everything else indexes are time-edges (edge,
stamp) and vertex appearances (vertex, stamp).

The text format ("TEL") is line based:

    <vertex_count> <lifetime>
    # name <id> <label>        optional vertex aliases
    % free-form comment
    <u> <v> <t>                one time-edge per line

Canonical serialization orders time-edges by (t, min(u,v), max(u,v)).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import IO, Iterable, NamedTuple


class TelParseError(ValueError):
    """Malformed TEL input; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class PathValidationError(ValueError):
    """A candidate time-edge sequence violates the path definition.

    ``reason`` is a stable machine-readable code, ``index`` the 0-based
    step at which the first violation occurs (-1 for whole-sequence
    problems such as wrong endpoints).
    """

    def __init__(self, reason: str, index: int, message: str):
        super().__init__(message)
        self.reason = reason
        self.index = index


@dataclass(frozen=True)
class TimeEdge:
    """An undirected edge present at one time step; endpoints are normalized u < v."""

    u: int
    v: int
    t: int

    def __post_init__(self):
        if self.u == self.v:
            raise ValueError(f"self-loop at vertex {self.u}")
        if self.u > self.v:
            lo, hi = self.v, self.u
            object.__setattr__(self, "u", lo)
            object.__setattr__(self, "v", hi)

    def touches(self, vertex: int) -> bool:
        return vertex == self.u or vertex == self.v

    def other(self, vertex: int) -> int:
        if vertex == self.u:
            return self.v
        if vertex == self.v:
            return self.u
        raise ValueError(f"vertex {vertex} is not an endpoint of {self}")

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v)


class VertexAppearance(NamedTuple):
    """A vertex at a specific time step."""

    v: int
    t: int


_stamp = attrgetter("t")


def _sorted_time_edges(vertex_count: int, lifetime: int,
                       edges: Iterable) -> tuple[TimeEdge, ...]:
    """Check a header and its time-edges; return the edges in canonical order."""
    if vertex_count < 0:
        raise ValueError("vertex_count must be non-negative")
    if lifetime < 1:
        raise ValueError("lifetime must be at least 1")
    by_key: dict[tuple[int, int, int], TimeEdge] = {}
    for e in edges:
        if not isinstance(e, TimeEdge):
            e = TimeEdge(*e)
        if not 1 <= e.t <= lifetime:
            raise ValueError(f"time stamp out of range: {e.t}")
        if not (0 <= e.u and e.v < vertex_count):
            raise ValueError(f"vertex id out of range: {e.pair}")
        key = (e.t, e.u, e.v)
        if key in by_key:
            raise ValueError(f"duplicate time-edge {e.pair} at time {e.t}")
        by_key[key] = e
    return tuple(by_key[key] for key in sorted(by_key))


class TemporalGraph:
    """Immutable temporal graph.

    ``time_edges``, in canonical (t, u, v) order, is the only edge
    storage; per-step views, lookups and the size derive from it, so
    nothing grows with ``lifetime``. Equality compares structure (vertex
    count, lifetime, time-edges); alias labels are presentation only.
    Instances are safe to share across threads; do not mutate.
    """

    __slots__ = ("vertex_count", "lifetime", "time_edges", "aliases",
                 "_alias_to_id")

    def __init__(self, vertex_count: int, lifetime: int,
                 layers: Iterable[Iterable[tuple[int, int]]],
                 aliases: dict[int, str] | None = None):
        """Build from one (u, v) pair list per time step 1..lifetime."""
        layers = tuple(layers)
        if len(layers) != lifetime:
            raise ValueError(f"expected {lifetime} layers, got {len(layers)}")
        self._assign(vertex_count, lifetime, _sorted_time_edges(
            vertex_count, lifetime,
            ((u, v, t) for t, layer in enumerate(layers, 1) for u, v in layer)), aliases)

    @classmethod
    def from_time_edges(cls, vertex_count: int, lifetime: int,
                        edges: Iterable[TimeEdge | tuple[int, int, int]],
                        aliases: dict[int, str] | None = None) -> "TemporalGraph":
        g = cls.__new__(cls)
        g._assign(vertex_count, lifetime,
                  _sorted_time_edges(vertex_count, lifetime, edges), aliases)
        return g

    def _assign(self, vertex_count: int, lifetime: int,
                time_edges: tuple[TimeEdge, ...], aliases: dict[int, str] | None):
        # time_edges must already be checked and in canonical order
        self.vertex_count = vertex_count
        self.lifetime = lifetime
        self.time_edges = time_edges
        self.aliases = dict(aliases) if aliases else {}
        for vid in self.aliases:
            if not 0 <= vid < vertex_count:
                raise ValueError(f"alias id out of range: {vid}")
        self._alias_to_id = {name: vid for vid, name in self.aliases.items()}
        if len(self._alias_to_id) != len(self.aliases):
            raise ValueError("duplicate alias label")

    def size(self) -> int:
        """|V| plus, per time step, its edge count (at least 1 for quiet steps)."""
        stamps = len({e.t for e in self.time_edges})
        return self.vertex_count + len(self.time_edges) + self.lifetime - stamps

    def edges_between(self, t_lo: int, t_hi: int) -> tuple[TimeEdge, ...]:
        """Time-edges with t_lo <= t <= t_hi, in canonical order."""
        lo = bisect_left(self.time_edges, t_lo, key=_stamp)
        hi = bisect_right(self.time_edges, t_hi, lo=lo, key=_stamp)
        return self.time_edges[lo:hi]

    def edges_at(self, t: int) -> frozenset[tuple[int, int]]:
        return frozenset(e.pair for e in self.edges_between(t, t))

    def has_time_edge(self, edge: TimeEdge) -> bool:
        return edge in self.edges_between(edge.t, edge.t)

    def vertices_used(self) -> frozenset[int]:
        """Vertices that are an endpoint of at least one time-edge."""
        return frozenset(v for e in self.time_edges for v in e.pair)

    def id_for(self, name_or_id: str | int) -> int:
        """Resolve a vertex given either its integer id or an alias label."""
        if isinstance(name_or_id, int):
            return name_or_id
        if name_or_id in self._alias_to_id:
            return self._alias_to_id[name_or_id]
        try:
            return int(name_or_id)
        except ValueError:
            raise KeyError(f"unknown vertex {name_or_id!r}") from None

    def __eq__(self, other) -> bool:
        if not isinstance(other, TemporalGraph):
            return NotImplemented
        return (self.vertex_count == other.vertex_count
                and self.lifetime == other.lifetime
                and self.time_edges == other.time_edges)

    def __hash__(self):
        return hash((self.vertex_count, self.lifetime, self.time_edges))

    def __repr__(self):
        return (f"TemporalGraph(|V|={self.vertex_count}, lifetime={self.lifetime}, "
                f"time_edges={len(self.time_edges)})")


@dataclass(frozen=True)
class RestlessPath:
    """A validated chronological simple path with bounded waiting times.

    Construct through validate_restless_path; direct construction skips
    the checks.
    """

    steps: tuple[TimeEdge, ...]
    delta: int
    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def departure(self) -> int:
        return self.steps[0].t

    @property
    def arrival(self) -> int:
        return self.steps[-1].t


def parse_temporal_graph(text: str | bytes | IO) -> TemporalGraph:
    """Parse TEL text into a TemporalGraph, rejecting malformed input."""
    if hasattr(text, "read"):
        text = text.read()
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = text.splitlines()

    header_idx = None
    for i, raw in enumerate(lines):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        header_idx = i
        break
    if header_idx is None:
        raise TelParseError(1, "missing header line")
    parts = lines[header_idx].split()
    if len(parts) != 2:
        raise TelParseError(header_idx + 1, "header must be '<vertex_count> <lifetime>'")
    try:
        vertex_count, lifetime = int(parts[0]), int(parts[1])
    except ValueError:
        raise TelParseError(header_idx + 1, "header fields must be integers") from None
    if vertex_count < 0:
        raise TelParseError(header_idx + 1, "vertex_count must be non-negative")
    if lifetime < 1:
        raise TelParseError(header_idx + 1, "lifetime must be at least 1")

    aliases: dict[int, str] = {}
    labels_seen: set[str] = set()
    keys: set[tuple[int, int, int]] = set()
    for i in range(header_idx + 1, len(lines)):
        lineno = i + 1
        line = lines[i].strip()
        if not line or line.startswith("%"):
            continue
        if line.startswith("#"):
            fields = line.split()
            if len(fields) != 4 or fields[0] != "#" or fields[1] != "name":
                raise TelParseError(lineno, "alias line must be '# name <id> <label>'")
            try:
                vid = int(fields[2])
            except ValueError:
                raise TelParseError(lineno, "alias id must be an integer") from None
            if not 0 <= vid < vertex_count:
                raise TelParseError(lineno, f"alias id out of range: {vid}")
            if vid in aliases:
                raise TelParseError(lineno, f"duplicate alias for vertex {vid}")
            if fields[3] in labels_seen:
                raise TelParseError(lineno, f"duplicate alias label {fields[3]!r}")
            aliases[vid] = fields[3]
            labels_seen.add(fields[3])
            continue
        fields = line.split()
        if len(fields) != 3:
            raise TelParseError(lineno, "time-edge line must be '<u> <v> <t>'")
        try:
            u, v, t = int(fields[0]), int(fields[1]), int(fields[2])
        except ValueError:
            raise TelParseError(lineno, "time-edge fields must be integers") from None
        if u == v:
            raise TelParseError(lineno, f"self-loop at vertex {u}")
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise TelParseError(lineno, f"vertex id out of range: {u} {v}")
        if not 1 <= t <= lifetime:
            raise TelParseError(lineno, f"time stamp out of [1, {lifetime}]: {t}")
        key = (t, u, v) if u < v else (t, v, u)
        if key in keys:
            raise TelParseError(lineno, f"duplicate time-edge {key[1:]} at time {t}")
        keys.add(key)
    g = TemporalGraph.__new__(TemporalGraph)
    g._assign(vertex_count, lifetime,
              tuple(TimeEdge(u, v, t) for t, u, v in sorted(keys)), aliases)
    return g


def serialize_temporal_graph(g: TemporalGraph) -> str:
    """Canonical TEL text: header, aliases by id, edges by (t, u, v)."""
    out = [f"{g.vertex_count} {g.lifetime}"]
    for vid in sorted(g.aliases):
        out.append(f"# name {vid} {g.aliases[vid]}")
    for edge in g.time_edges:
        out.append(f"{edge.u} {edge.v} {edge.t}")
    return "\n".join(out) + "\n"


def validate_restless_path(g: TemporalGraph, steps, s: int, z: int,
                           delta: int) -> RestlessPath:
    """Check that steps form a waiting-time-bounded chronological simple
    s-z path in g, reporting the first violated condition.

    Conditions, in checking order along the sequence: every step is a
    time-edge of g; steps chain into a walk starting at s; stamps are
    non-decreasing; consecutive stamps differ by at most delta; no vertex
    repeats; the walk ends at z. A single step only needs to join s and z.
    """
    if delta < 1:
        raise PathValidationError("bad-delta", -1, "delta must be at least 1")
    steps = tuple(steps)
    if not steps:
        raise PathValidationError("empty", -1, "path must contain at least one step")
    first = steps[0]
    if not first.touches(s):
        raise PathValidationError(
            "bad-endpoints", 0, f"first step {first} does not touch source {s}")
    current = s
    visited = {s}
    prev_t = None
    for i, step in enumerate(steps):
        if not g.has_time_edge(step):
            raise PathValidationError(
                "missing-edge", i, f"step {i}: {step} is not a time-edge of the graph")
        if not step.touches(current):
            raise PathValidationError(
                "not-connected", i,
                f"step {i}: {step} does not continue from vertex {current}")
        if prev_t is not None:
            if step.t < prev_t:
                raise PathValidationError(
                    "not-chronological", i,
                    f"step {i}: stamp {step.t} precedes previous stamp {prev_t}")
            if step.t > prev_t + delta:
                raise PathValidationError(
                    "waiting-exceeded", i,
                    f"step {i}: waiting {step.t - prev_t} exceeds bound {delta}")
        nxt = step.other(current)
        if nxt in visited:
            raise PathValidationError(
                "vertex-repeated", i, f"step {i}: vertex {nxt} visited twice")
        visited.add(nxt)
        current = nxt
        prev_t = step.t
    if current != z:
        raise PathValidationError(
            "bad-endpoints", len(steps) - 1,
            f"path ends at vertex {current}, expected {z}")
    order = [s]
    cur = s
    for step in steps:
        cur = step.other(cur)
        order.append(cur)
    return RestlessPath(steps=steps, delta=delta, vertices=tuple(order))


def induced_subgraph(g: TemporalGraph, keep, extra_edges=()) -> TemporalGraph:
    """Subgraph with the time-edges whose endpoint appearances all lie in
    keep, plus extra_edges verbatim.

    keep is a collection of VertexAppearance; extra_edges must be
    time-edges of g. Vertex ids, count and lifetime are preserved, so the
    result's vertex support is exactly the endpoints of retained edges.
    """
    keep = frozenset(keep)
    retained: set[TimeEdge] = set()
    for edge in g.time_edges:
        if VertexAppearance(edge.u, edge.t) in keep and VertexAppearance(edge.v, edge.t) in keep:
            retained.add(edge)
    for edge in extra_edges:
        if not g.has_time_edge(edge):
            raise ValueError(f"extra edge {edge} is not a time-edge of the graph")
        retained.add(edge)
    return TemporalGraph.from_time_edges(
        g.vertex_count, g.lifetime, retained, g.aliases)
