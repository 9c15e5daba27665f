from __future__ import annotations

import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import FIG1_TEXT, S, A, B, C, D, E, Z
from rtp import (PathValidationError, TelParseError, TemporalGraph, TimeEdge,
                 parse_temporal_graph, random_temporal_graph,
                 serialize_temporal_graph, validate_restless_path)

FIG1_PATH = [TimeEdge(S, A, 2), TimeEdge(A, C, 4), TimeEdge(C, B, 4),
             TimeEdge(B, E, 4), TimeEdge(E, Z, 6)]


def test_time_edge_normalizes_endpoints():
    e = TimeEdge(3, 1, 2)
    assert (e.u, e.v, e.t) == (1, 3, 2)
    assert e.other(1) == 3 and e.other(3) == 1
    assert TimeEdge(u=3, v=1, t=2) == e
    assert hash(TimeEdge(3, 1, 2)) == hash(TimeEdge(1, 3, 2))
    # replace builds through the constructor, so it normalizes again
    assert dataclasses.astuple(dataclasses.replace(e, u=9)) == (3, 9, 2)
    with pytest.raises(ValueError, match="self-loop at vertex 2"):
        TimeEdge(2, 2, 1)
    with pytest.raises(ValueError, match="self-loop"):
        dataclasses.replace(e, u=3)


def test_time_edge_has_slots_only():
    # a graph holds one TimeEdge per time-edge; slots keep each one small
    e = TimeEdge(0, 1, 1)
    assert not hasattr(e, "__dict__")
    assert TimeEdge.__slots__ == ("u", "v", "t")
    for field in ("u", "v", "t"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(e, field, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del e.u
    assert repr(TimeEdge(4, 2, 7)) == "TimeEdge(u=2, v=4, t=7)"
    for again in (pickle.loads(pickle.dumps(TimeEdge(3, 1, 2))), copy.copy(TimeEdge(3, 1, 2)),
                  copy.deepcopy(TimeEdge(3, 1, 2))):
        assert again == TimeEdge(1, 3, 2)


@pytest.mark.parametrize("clone", [
    *(lambda g, p=protocol: pickle.loads(pickle.dumps(g, p))
      for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)),
    copy.copy, copy.deepcopy])
def test_graph_round_trips_keep_edges_and_aliases(clone):
    # a graph can be weakly referenced (its shared index follows it), and
    # that slot travels in no round trip
    g = parse_temporal_graph(FIG1_TEXT)
    again = clone(g)
    assert again == g and again is not g
    assert (again.vertex_count, again.lifetime) == (7, 6)
    assert again.aliases == g.aliases and again.id_for("e") == E
    assert serialize_temporal_graph(again) == serialize_temporal_graph(g)
    assert not hasattr(again, "__dict__")


def test_parse_fig1(fig1):
    assert fig1.vertex_count == 7
    assert fig1.lifetime == 6
    assert len(fig1.time_edges) == 9
    # the same underlying edge at two stamps counts twice
    assert fig1.has_time_edge(TimeEdge(S, B, 1))
    assert fig1.has_time_edge(TimeEdge(S, B, 5))
    assert fig1.aliases[Z] == "z"
    assert fig1.id_for("e") == E
    assert oracles.graph_size(fig1) == 7 + 2 + 2 + 1 + 3 + 1 + 1  # empty layer 3 counts 1


def test_parse_minimal():
    g = parse_temporal_graph("2 1\n0 1 1\n")
    assert g.vertex_count == 2 and g.lifetime == 1
    assert g.time_edges == (TimeEdge(0, 1, 1),)


@pytest.mark.parametrize("text,fragment", [
    ("2 1\n0 0 1\n", "self-loop"),
    ("2 1\n0 2 1\n", "out of range"),
    ("2 1\n0 1 2\n", "out of [1, 1]"),
    ("2 1\n0 1 0\n", "out of [1, 1]"),
    ("2 2\n0 1 1\n0 1 1\n", "duplicate time-edge"),
    ("2 1\n0 1\n", "must be"),
    ("2\n", "header"),
    ("", "missing header"),
    ("2 0\n", "lifetime"),
    ("2 1\n# name 5 q\n", "alias id out of range"),
    ("3 1\n# name 0 q\n# name 1 q\n", "duplicate alias label"),
])
def test_parse_rejects(text, fragment):
    with pytest.raises(TelParseError) as err:
        parse_temporal_graph(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("edges", [
    [(0, 0, 1)],  # self-loop
    [(0, 5, 9)],  # both the vertex and the stamp out of range: the vertex first
    [(0, 5, 1)],
    [(0, 1, 0)],
    [(0, 1, 9)],
    [(0, 1, 1), (0, 1, 1)],  # duplicate
])
def test_constructor_and_parser_reject_a_bad_edge_alike(edges):
    # edges are written with u < v, since the constructor names the
    # normalized ends and the parser the ends as written
    text = "2 1\n" + "".join(f"{u} {v} {t}\n" for u, v, t in edges)
    with pytest.raises(TelParseError) as parsed:
        parse_temporal_graph(text)
    with pytest.raises(ValueError) as built:
        TemporalGraph.from_time_edges(2, 1, edges)
    assert str(parsed.value) == f"line {parsed.value.line}: {built.value}"


def test_parse_error_carries_line_number():
    with pytest.raises(TelParseError) as err:
        parse_temporal_graph("3 2\n0 1 1\n1 1 2\n")
    assert err.value.line == 3


def test_parse_classifies_lines_by_their_first_field():
    # leading whitespace does not change a line's kind; a # glued to its
    # word is still an alias line, and a malformed one
    g = parse_temporal_graph("   % c\n3 2\n   % c\n  # name 0 a\n0\t1\t1\n\t1 2  2 \n")
    assert g.aliases == {0: "a"}
    assert g.time_edges == (TimeEdge(0, 1, 1), TimeEdge(1, 2, 2))
    assert parse_temporal_graph(" \t\n\t3\t2\n").vertex_count == 3
    with pytest.raises(TelParseError, match="alias line must be") as err:
        parse_temporal_graph("3 2\n#name 0 a\n")
    assert err.value.line == 2
    with pytest.raises(TelParseError, match="time-edge fields must be integers"):
        parse_temporal_graph("3 2\n0 1 %1\n")


@pytest.mark.parametrize("text,fragment", [
    ("3 2\n0 0 1\n# name 9 q\n", "self-loop"),
    ("3 2\n# name 9 q\n0 0 1\n", "alias id out of range"),
])
def test_parse_reports_the_earlier_of_two_bad_lines(text, fragment):
    with pytest.raises(TelParseError, match=fragment) as err:
        parse_temporal_graph(text)
    assert err.value.line == 2


def test_parse_rejects_a_label_that_reads_as_a_vertex_id():
    # id_for would resolve "1" to vertex 0, hiding vertex 1
    with pytest.raises(TelParseError) as err:
        parse_temporal_graph("2 1\n# name 0 1\n0 1 1\n")
    assert err.value.line == 2 and "vertex id" in str(err.value)


def test_parse_reports_the_line_of_a_bad_byte():
    for raw, line in ((b"\xe93 1\n", 1), (b"3 1\n% caf\xe9\n0 1 1\n", 2),
                      (b"3 1\r\n0 1 1\r\n% \xff\n", 3), (b"3 1\n0 1 1\n\xc3", 3)):
        with pytest.raises(TelParseError) as err:
            parse_temporal_graph(raw)
        assert err.value.line == line, raw


@pytest.mark.parametrize("mark", ["\x0c", "\x85", "\u2028"])
def test_parse_breaks_lines_at_universal_newlines_only(mark):
    # str.splitlines breaks at these too; a comment holding one is one line
    text = f"3 2\r\n% a{mark}b c\n0 1 1\r0 1 9\n"
    for raw in (text, text.encode()):
        with pytest.raises(TelParseError) as err:
            parse_temporal_graph(raw)
        assert err.value.line == 4 and "out of [1, 2]" in str(err.value), raw
    good = parse_temporal_graph(f"3 1\n% a{mark}b\n0 1 1\n".encode())
    assert good.time_edges == (TimeEdge(0, 1, 1),)
    with pytest.raises(TelParseError) as err:
        parse_temporal_graph(f"3 1\n% a{mark}b\r\n".encode() + b"\xff")
    assert err.value.line == 3


@pytest.mark.parametrize("label", ["", "a b", "x\ty", "1", "-2", " 3", "1_0"])
def test_constructors_reject_a_label_parse_would(label):
    # every label TEL cannot carry as one field, or that reads as an id
    edges = [TimeEdge(0, 1, 1)]
    with pytest.raises(ValueError, match="alias label"):
        TemporalGraph.from_time_edges(3, 2, edges, {0: label})
    with pytest.raises(ValueError, match="alias label"):
        TemporalGraph(3, 2, [[(0, 1)], []], {2: "ok", 0: label})
    text = serialize_temporal_graph(TemporalGraph.from_time_edges(3, 2, edges, {0: "ok"}))
    with pytest.raises(TelParseError):
        parse_temporal_graph(text.replace("ok", label))


def test_constructor_aliases_round_trip_through_tel():
    g = TemporalGraph.from_time_edges(3, 2, [TimeEdge(0, 1, 1)], {0: "a", 2: "x1"})
    again = parse_temporal_graph(serialize_temporal_graph(g))
    assert again.aliases == g.aliases and again.id_for("x1") == 2
    with pytest.raises(ValueError, match="duplicate alias label"):
        TemporalGraph.from_time_edges(3, 2, [], {0: "a", 1: "a"})
    with pytest.raises(ValueError, match="alias id out of range"):
        TemporalGraph.from_time_edges(3, 2, [], {3: "a"})


def test_parse_accepts_comments_and_bytes():
    g = parse_temporal_graph(b"% header comment\n3 2\n% mid\n0 1 1\n\n1 2 2\n")
    assert len(g.time_edges) == 2


def test_serialize_fig1_round_trip(fig1):
    assert serialize_temporal_graph(fig1) == FIG1_TEXT
    assert parse_temporal_graph(serialize_temporal_graph(fig1)) == fig1


@st.composite
def graphs(draw):
    nv = draw(st.integers(2, 7))
    tau = draw(st.integers(1, 5))
    pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)]
    layers = []
    for _ in range(tau):
        layers.append(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6)))
    return TemporalGraph(nv, tau, layers)


@settings(max_examples=80)
@given(graphs(), st.randoms(use_true_random=False))
def test_round_trip_from_shuffled_text(g, rng):
    # any edge-line order and comment noise parses back to canonical form
    lines = [f"{e.u} {e.v} {e.t}" for e in g.time_edges]
    rng.shuffle(lines)
    lines.insert(0, f"{g.vertex_count} {g.lifetime}")
    lines.insert(1, "% noise")
    parsed = parse_temporal_graph("\n".join(lines) + "\n")
    assert parsed == g
    assert serialize_temporal_graph(parsed) == serialize_temporal_graph(g)


def test_validate_fig1_golden(fig1):
    path = validate_restless_path(fig1, FIG1_PATH, S, Z, 2)
    assert path.length == 5
    assert path.vertices == (S, A, C, B, E, Z)
    assert path.departure == 2 and path.arrival == 6


def test_validate_rejects_tight_delta(fig1):
    with pytest.raises(PathValidationError) as err:
        validate_restless_path(fig1, FIG1_PATH, S, Z, 1)
    assert err.value.reason == "waiting-exceeded"
    assert err.value.index == 1  # first offending gap (2 -> 4)


def test_validate_reports_first_offending_gap(fig1):
    # suffix c-b-e-z has gaps 0, 2: only the 4 -> 6 hop breaks delta=1
    steps = [TimeEdge(C, B, 4), TimeEdge(B, E, 4), TimeEdge(E, Z, 6)]
    with pytest.raises(PathValidationError) as err:
        validate_restless_path(fig1, steps, C, Z, 1)
    assert err.value.reason == "waiting-exceeded"
    assert err.value.index == 2


def test_validate_rejects_long_wait(fig1):
    with pytest.raises(PathValidationError) as err:
        validate_restless_path(fig1, [TimeEdge(S, E, 1), TimeEdge(E, Z, 6)], S, Z, 2)
    assert err.value.reason == "waiting-exceeded"  # gap 5 > 2


def test_validate_error_kinds(fig1):
    cases = [
        ([TimeEdge(S, A, 3)], "missing-edge"),
        ([TimeEdge(S, A, 2), TimeEdge(E, Z, 6)], "not-connected"),
        ([TimeEdge(S, B, 5), TimeEdge(B, E, 4)], "not-chronological"),
        ([TimeEdge(S, E, 1), TimeEdge(E, C, 2), TimeEdge(E, C, 2)], "vertex-repeated"),
        ([TimeEdge(S, A, 2)], "bad-endpoints"),
        ([TimeEdge(A, C, 4)], "bad-endpoints"),
        ([], "empty"),
    ]
    for steps, reason in cases:
        with pytest.raises(PathValidationError) as err:
            validate_restless_path(fig1, steps, S, Z, 2)
        assert err.value.reason == reason, steps


def test_validate_agrees_with_naive_check():
    rng = random.Random(99)
    checked = 0
    accepted = 0
    while checked < 1000:
        nv = rng.randint(2, 8)
        tau = rng.randint(1, 6)
        g = random_temporal_graph(nv, tau, rng.uniform(0.5, 3.0), rng.getrandbits(64))
        if not g.time_edges:
            continue
        s = rng.randrange(nv)
        z = rng.randrange(nv)
        if s == z:
            continue
        delta = rng.randint(1, 3)
        # half random garbage, half genuine-ish walks
        m = rng.randint(1, 4)
        if rng.random() < 0.5:
            steps = [rng.choice(g.time_edges) for _ in range(m)]
        else:
            steps = []
            cur = s
            for _ in range(m):
                options = [e for e in g.time_edges if e.touches(cur)]
                if not options:
                    break
                e = rng.choice(options)
                steps.append(e)
                cur = e.other(cur)
        if not steps:
            continue
        checked += 1
        triples = [(e.u, e.v, e.t) for e in steps]
        want = oracles.check_restless_sequence(
            triples, set(oracles.edge_triples(g)), s, z, delta)
        try:
            validate_restless_path(g, steps, s, z, delta)
            got = True
            accepted += 1
        except PathValidationError:
            got = False
        assert got == want, (triples, s, z, delta)
    assert accepted > 0  # the sampler does produce genuine paths


def test_path_visits_length_plus_one_vertices(fig1):
    path = validate_restless_path(fig1, FIG1_PATH, S, Z, 2)
    assert len(set(path.vertices)) == path.length + 1


def test_restless_monotone_in_delta(fig1):
    # a valid path stays valid for every larger waiting bound
    for delta in range(2, 8):
        assert validate_restless_path(fig1, FIG1_PATH, S, Z, delta).length == 5


def test_graph_rejects_duplicate_layer_edge():
    with pytest.raises(ValueError):
        TemporalGraph(3, 1, [[(0, 1), (1, 0)]])


def test_empty_layers_are_representable():
    g = parse_temporal_graph("3 4\n0 1 2\n")
    assert oracles.graph_size(g) == 3 + 1 + 1 + 1 + 1
    assert g.edges_between(1, 1) == ()
