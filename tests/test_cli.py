from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import FIG1_TEXT, line_with_chord
from rtp import parse_temporal_graph, serialize_temporal_graph
from rtp.cli import main


@pytest.fixture()
def fig1_file(tmp_path):
    path = tmp_path / "fig1.tel"
    path.write_text(FIG1_TEXT)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_yes_golden(fig1_file, capsys):
    code, out, _ = run(capsys, [
        "solve", "-i", fig1_file, "-s", "s", "-z", "z",
        "--delta", "2", "--k", "5", "--backend", "brute"])
    assert code == 0
    payload = json.loads(out)
    assert payload["decision"] == "yes"
    assert payload["temporal_distance"] == 2
    assert payload["ell"] == 3
    steps = [(w["u"], w["v"], w["t"]) for w in payload["witness"]]
    assert steps == [(0, 1, 2), (1, 3, 4), (2, 3, 4), (2, 5, 4), (5, 6, 6)]
    assert payload["witness"][0]["u_label"] == "s"
    assert payload["witness"][-1]["v_label"] == "z"


def test_solve_windowed_labels_come_from_the_query_graph(fig1_file, capsys):
    # the window graphs carry no aliases; the witness is labelled from the
    # query graph, as without windows
    code, out, _ = run(capsys, [
        "solve", "-i", fig1_file, "-s", "s", "-z", "z",
        "--delta", "2", "--k", "5", "--backend", "brute", "--time-window"])
    assert code == 0
    witness = json.loads(out)["witness"]
    assert [(w["u_label"], w["v_label"]) for w in witness] == [
        ("s", "a"), ("a", "c"), ("b", "c"), ("b", "e"), ("e", "z")]


def test_solve_no_exit_code(fig1_file, capsys):
    code, out, _ = run(capsys, [
        "solve", "-i", fig1_file, "-s", "s", "-z", "z",
        "--delta", "2", "--k", "4", "--backend", "brute"])
    assert code == 1
    assert json.loads(out)["decision"] == "no"
    assert json.loads(out)["witness"] is None


def test_solve_json_stable_after_stats_normalization(fig1_file, capsys):
    outs = []
    for _ in range(2):
        _, out, _ = run(capsys, [
            "solve", "-i", fig1_file, "-s", "0", "-z", "6",
            "--delta", "2", "--k", "5", "--seed", "0xDEADBEEF"])
        payload = json.loads(out)
        payload["stats"] = None
        outs.append(json.dumps(payload, sort_keys=True))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("k,golden", [(5, "fig1_solve_k5.json"),
                                      (4, "fig1_solve_k4.json")])
def test_solve_golden_files_byte_compare(fig1_file, capsys, k, golden):
    import json
    import pathlib
    _, out, _ = run(capsys, [
        "solve", "-i", fig1_file, "-s", "s", "-z", "z",
        "--delta", "2", "--k", str(k), "--backend", "brute", "--seed", "0"])
    payload = json.loads(out)
    payload["stats"] = {key: 0 for key in sorted(payload["stats"])}
    normalized = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    want = pathlib.Path(__file__).with_name("golden").joinpath(golden).read_text()
    assert normalized == want


def test_solve_with_deep_probes(tmp_path, capsys):
    # slack 1098: the table's probes follow the line past the recursion limit
    path = tmp_path / "line.tel"
    path.write_text(serialize_temporal_graph(line_with_chord(1100)))
    code, out, _ = run(capsys, [
        "solve", "-i", str(path), "-s", "0", "-z", "1099",
        "--delta", "1", "--k", "1099", "--backend", "brute"])
    assert code == 0
    assert [(w["u"], w["v"], w["t"]) for w in json.loads(out)["witness"]] == [(0, 1099, 1100)]


def test_solve_usage_errors(fig1_file, capsys):
    code, _, err = run(capsys, [
        "solve", "-i", fig1_file, "-s", "0", "-z", "6", "--delta", "2", "--k", "0"])
    assert code == 2 and "k must be at least 1" in err
    code, _, _ = run(capsys, ["solve", "--delta", "2", "--k", "3"])
    assert code == 2  # missing required flags
    code, _, err = run(capsys, [
        "solve", "-i", fig1_file, "-s", "0", "-z", "0", "--delta", "2", "--k", "3"])
    assert code == 2 and "differ" in err


def test_solve_error_prob_too_small_to_split(fig1_file, capsys):
    code, _, err = run(capsys, [
        "solve", "-i", fig1_file, "-s", "s", "-z", "z", "--delta", "2", "--k", "5",
        "--error-prob", "5e-324"])
    assert code == 2 and "p=5e-324" in err and "underflows" in err


def test_solve_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.tel"
    bad.write_text("2 1\n0 0 1\n")
    code, _, err = run(capsys, [
        "solve", "-i", str(bad), "-s", "0", "-z", "1", "--delta", "1", "--k", "1"])
    assert code == 2 and "self-loop" in err


def test_bad_byte_is_a_parse_error_on_its_line_from_file_and_stdin(tmp_path, capsys,
                                                                   monkeypatch):
    import io
    raw = b"2 1\n% caf\xe9\n0 1 1\n"
    bad = tmp_path / "bad.tel"
    bad.write_bytes(raw)
    argv = ["solve", "-s", "0", "-z", "1", "--delta", "1", "--k", "1", "-i"]
    code, _, err = run(capsys, argv + [str(bad)])
    assert code == 2 and "line 2:" in err and "0xe9" in err
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw)))
    assert run(capsys, argv + ["-"]) == (code, "", err)


def test_integer_alias_label_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.tel"
    bad.write_text("2 1\n# name 0 1\n0 1 1\n")
    code, _, err = run(capsys, [
        "solve", "-i", str(bad), "-s", "1", "-z", "0", "--delta", "1", "--k", "1"])
    assert code == 2 and "line 2:" in err


def test_solve_time_window_mode(fig1_file, capsys):
    code, out, _ = run(capsys, [
        "solve", "-i", fig1_file, "-s", "s", "-z", "z",
        "--delta", "2", "--k", "5", "--time-window", "--backend", "brute"])
    assert code == 0
    assert json.loads(out)["decision"] == "yes"


def test_solve_dump_area(fig1_file, capsys):
    code, out, _ = run(capsys, [
        "solve", "-i", fig1_file, "-s", "s", "-z", "z",
        "--delta", "2", "--k", "5", "--dump-area", "6,6"])
    assert code == 0
    dumped = parse_temporal_graph(out)
    assert dumped.vertex_count == 7
    assert len(dumped.time_edges) == 8  # everything but the stamp-5 edge


def test_solve_dump_area_with_lower_corner(fig1_file, capsys):
    # hop corridor between (e,6) below and (z,6) above: just the last edge
    code, out, _ = run(capsys, [
        "solve", "-i", fig1_file, "-s", "s", "-z", "z",
        "--delta", "2", "--k", "5", "--dump-area", "6,6:5,6"])
    assert code == 0
    dumped = parse_temporal_graph(out)
    assert [(e.u, e.v, e.t) for e in dumped.time_edges] == [(5, 6, 6)]


def test_solve_dump_area_isolated_upper_corner(fig1_file, capsys):
    # c has no time-edge at stamp 1, with or without a lower corner
    for spec in ("3,1", "3,1:0,1"):
        code, _, err = run(capsys, [
            "solve", "-i", fig1_file, "-s", "s", "-z", "z",
            "--delta", "2", "--k", "5", "--dump-area", spec])
        assert code == 2 and "non-isolated" in err, spec


def test_distances_json(fig1_file, capsys):
    code, out, _ = run(capsys, [
        "distances", "-i", fig1_file, "-z", "z", "-s", "s", "--delta", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["target"] == 6
    assert payload["source_distance"] == 2
    assert payload["restless_walk_distance"] == 5
    table = {(e["v"], e["t"]): e["d"] for e in payload["entries"]}
    assert table[(5, 6)] == 1 and table[(6, 6)] == 0
    assert table[(0, 5)] is None  # unreachable appearance serializes as null
    assert len(payload["entries"]) == 15


def test_validate_ok(fig1_file, capsys):
    code, out, _ = run(capsys, [
        "validate", "-i", fig1_file, "-s", "s", "-z", "z", "--delta", "2",
        "--path", "0,1,2;1,3,4;3,2,4;2,5,4;5,6,6"])
    assert code == 0
    assert json.loads(out) == {"valid": True, "length": 5,
                               "departure": 2, "arrival": 6}


@pytest.mark.parametrize("flags", [["-z", "z", "--delta", "0"],
                                   ["-s", "s", "-z", "z", "--delta", "0"],
                                   ["-z", "z", "--delta", "-1"]])
def test_distances_rejects_delta_below_one_as_usage_error(fig1_file, capsys, flags):
    code, out, err = run(capsys, ["distances", "-i", fig1_file, *flags])
    assert code == 2 and out == "" and "delta must be at least 1" in err


def test_validate_rejects(fig1_file, capsys):
    code, out, _ = run(capsys, [
        "validate", "-i", fig1_file, "-s", "s", "-z", "z", "--delta", "1",
        "--path", "0,1,2;1,3,4;3,2,4;2,5,4;5,6,6"])
    assert code == 1
    assert json.loads(out)["reason"] == "waiting-exceeded"


@pytest.mark.parametrize("delta", ["0", "-1"])
def test_validate_rejects_delta_below_one_as_usage_error(fig1_file, capsys, delta):
    code, out, err = run(capsys, [
        "validate", "-i", fig1_file, "-s", "s", "-z", "z", "--delta", delta,
        "--path", "0,1,2;1,3,4;3,2,4;2,5,4;5,6,6"])
    assert code == 2 and out == "" and "delta must be at least 1" in err


def test_gen_deterministic(capsys):
    args = ["gen", "--vertices", "8", "--lifetime", "6",
            "--edges-per-layer", "3", "--seed", "7"]
    _, first, _ = run(capsys, args)
    _, second, _ = run(capsys, args)
    assert first == second
    g = parse_temporal_graph(first)
    assert g.vertex_count == 8 and g.lifetime == 6


def test_gen_rejects_single_vertex(capsys):
    code, _, err = run(capsys, [
        "gen", "--vertices", "1", "--lifetime", "2", "--edges-per-layer", "1"])
    assert code == 2 and "at least 2" in err


@pytest.mark.parametrize("mean", ["nan", "inf", "-1"])
def test_gen_rejects_non_finite_or_negative_edges_per_layer(capsys, mean):
    code, _, err = run(capsys, [
        "gen", "--vertices", "5", "--lifetime", "3", "--edges-per-layer", mean])
    assert code == 2 and "edges_per_layer" in err


def test_gen_solve_round_trip_fuzz(monkeypatch):
    # tiny instances, 10k seeds: the round trip must never crash
    import contextlib
    import io
    import sys
    from rtp.rng import SeedStream
    stream = SeedStream(314159)
    sink = io.StringIO()
    for i in range(10_000):
        seed = stream.next()
        sink.seek(0)
        sink.truncate()
        with contextlib.redirect_stdout(sink):
            assert main(["gen", "--vertices", "5", "--lifetime", "4",
                         "--edges-per-layer", "1.5", "--seed", str(seed)]) == 0
            tel = sink.getvalue()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(tel.encode())))
        sink.seek(0)
        sink.truncate()
        with contextlib.redirect_stdout(sink):
            code = main(["solve", "-i", "-", "-s", "0", "-z", "4",
                         "--delta", "2", "--k", "4", "--seed", str(seed)])
        assert code in (0, 1)


def test_validate_malformed_path_string(fig1_file, capsys):
    code, _, err = run(capsys, [
        "validate", "-i", fig1_file, "-s", "s", "-z", "z", "--delta", "2",
        "--path", "0,1"])
    assert code == 2 and "bad path step" in err


def test_seed_accepts_hex_and_decimal(fig1_file, capsys):
    for seed in ("0xffffffffffffffff", "123"):
        code, _, _ = run(capsys, [
            "solve", "-i", fig1_file, "-s", "0", "-z", "6",
            "--delta", "2", "--k", "5", "--seed", seed])
        assert code == 0
    code, _, _ = run(capsys, [
        "solve", "-i", fig1_file, "-s", "0", "-z", "6",
        "--delta", "2", "--k", "5", "--seed", "0x10000000000000000"])
    assert code == 2


def test_text_format(fig1_file, capsys):
    code, out, _ = run(capsys, [
        "solve", "-i", fig1_file, "-s", "0", "-z", "6", "--delta", "2",
        "--k", "5", "--format", "text", "--backend", "brute"])
    assert code == 0
    assert out.startswith("decision: yes")


def test_answers_do_not_depend_on_debug_mode(fig1_file):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    outs = []
    for flags in (["-O"], []):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "rtp.cli", "solve", "-i", fig1_file,
             "-s", "s", "-z", "z", "--delta", "2", "--k", "5",
             "--backend", "sieve", "--seed", "0"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        payload["stats"] = {key: 0 for key in payload["stats"]}
        outs.append(payload)
    assert outs[0] == outs[1]


def test_package_runs_as_a_module(fig1_file):
    # python -m rtp from a checkout, with only the source tree on the path
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    codes = []
    for k in ("5", "4"):
        proc = subprocess.run(
            [sys.executable, "-m", "rtp", "solve", "-i", fig1_file,
             "-s", "s", "-z", "z", "--delta", "2", "--k", k],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.stdout, proc.stderr
        codes.append(proc.returncode)
    assert codes == [0, 1]
