"""Command-line front end.

Subcommands: solve (decide and reconstruct), distances (dump the
distance table as JSON), validate (check a candidate path), gen (emit a
random instance). Timing and work counters come from the benchmark
harness, ``python3 bench/run.py``.

Exit codes for solve/validate: 0 = yes/valid, 1 = no/invalid, 2 = usage
or input error. Other subcommands use 0/2.
"""

from __future__ import annotations

import argparse
import json
import sys

from .areas import area_graph, area_spec
from .distances import INF, compute_distances, restless_walk_distance
from .generate import random_temporal_graph
from .path_finder import FinderConfig
from .rng import MASK64
from .solver import solve, solve_windowed
from .temporal_graph import (TelParseError, TimeEdge, VertexAppearance,
                             PathValidationError, parse_temporal_graph,
                             serialize_temporal_graph, induced_subgraph,
                             validate_restless_path)


class CliError(Exception):
    pass


def _read_graph(path: str):
    if path == "-":
        return parse_temporal_graph(sys.stdin.read())
    with open(path, "rb") as fh:
        return parse_temporal_graph(fh.read())


def _seed(text: str) -> int:
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed {text!r}") from None
    if not 0 <= value <= MASK64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def _vertex(g, text: str) -> int:
    try:
        vid = g.id_for(text)
    except KeyError as err:
        raise CliError(str(err)) from None
    if not 0 <= vid < g.vertex_count:
        raise CliError(f"vertex {text!r} out of range")
    return vid


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def _finder_config(args) -> FinderConfig:
    return FinderConfig(backend=args.backend, error_prob=args.error_prob,
                        seed=args.seed, auto_threshold=args.auto_threshold)


def _parse_appearance(text: str) -> VertexAppearance:
    v, _, t = text.partition(",")
    try:
        return VertexAppearance(int(v), int(t))
    except ValueError:
        raise CliError(f"bad appearance {text!r}, expected 'v,t'") from None


def cmd_solve(args) -> int:
    g = _read_graph(args.input)
    s = _vertex(g, args.source)
    z = _vertex(g, args.target)
    if s == z:
        raise CliError("source and target must differ")
    cfg = _finder_config(args)

    if args.dump_area:
        dt = compute_distances(g, z)
        upper_text, _, lower_text = args.dump_area.partition(":")
        upper = _parse_appearance(upper_text)
        lower = _parse_appearance(lower_text) if lower_text else None
        spec = area_spec(dt, lower, upper, args.delta)
        area = area_graph(g, dt, spec)
        sub = induced_subgraph(g, (), area.time_edges)
        sys.stdout.write(serialize_temporal_graph(sub))
        return 0

    runner = solve_windowed if args.time_window else solve
    result = runner(g, s, z, args.delta, args.k, args.error_prob, cfg)
    payload = result.to_json_dict()
    if g.aliases and result.witness is not None:
        for step in payload["witness"]:
            step["u_label"] = g.aliases.get(step["u"])
            step["v_label"] = g.aliases.get(step["v"])
    _emit(payload, args.format)
    return 0 if result.decision else 1


def cmd_distances(args) -> int:
    g = _read_graph(args.input)
    z = _vertex(g, args.target)
    dt = compute_distances(g, z)
    entries = [
        {"v": app.v, "t": app.t, "d": None if d == INF else d}
        for app, d in sorted(dt.entries.items())
    ]
    payload: dict = {"target": z, "entries": entries}
    if args.source is not None:
        s = _vertex(g, args.source)
        d = dt.source_distance(s)
        payload["source"] = s
        payload["source_distance"] = None if d == INF else d
        if s != z:
            walk = restless_walk_distance(g, s, z, args.delta)
            payload["restless_walk_distance"] = None if walk == INF else walk
    _emit(payload, args.format)
    return 0


def cmd_validate(args) -> int:
    g = _read_graph(args.input)
    s = _vertex(g, args.source)
    z = _vertex(g, args.target)
    steps = []
    for chunk in args.path.split(";"):
        fields = chunk.split(",")
        if len(fields) != 3:
            raise CliError(f"bad path step {chunk!r}, expected 'u,v,t'")
        try:
            steps.append(TimeEdge(int(fields[0]), int(fields[1]), int(fields[2])))
        except ValueError as err:
            raise CliError(f"bad path step {chunk!r}: {err}") from None
    try:
        path = validate_restless_path(g, steps, s, z, args.delta)
    except PathValidationError as err:
        _emit({"valid": False, "reason": err.reason, "detail": str(err)}, args.format)
        return 1
    _emit({"valid": True, "length": path.length,
           "departure": path.departure, "arrival": path.arrival}, args.format)
    return 0


def cmd_gen(args) -> int:
    g = random_temporal_graph(args.vertices, args.lifetime,
                              args.edges_per_layer, args.seed)
    sys.stdout.write(serialize_temporal_graph(g))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtp",
        description="Short restless temporal path toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--input", "-i", default="-",
                       help="TEL file, or - for stdin")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p_solve = sub.add_parser("solve", help="decide a short restless path query")
    add_common(p_solve)
    p_solve.add_argument("--source", "-s", required=True)
    p_solve.add_argument("--target", "-z", required=True)
    p_solve.add_argument("--delta", type=int, required=True,
                         help="maximum waiting time at intermediate vertices")
    p_solve.add_argument("--k", type=int, required=True, help="length budget")
    p_solve.add_argument("--error-prob", type=float, default=0.01)
    p_solve.add_argument("--seed", type=_seed, default=0)
    p_solve.add_argument("--backend", choices=("brute", "sieve", "auto"),
                         default="auto")
    p_solve.add_argument("--auto-threshold", type=int, default=7)
    p_solve.add_argument("--time-window", action="store_true",
                         help="try each departure time of the source on a trimmed horizon")
    p_solve.add_argument("--dump-area", metavar="B,T[:A,T]",
                         help="debug: dump one corridor subgraph as TEL and exit")
    p_solve.set_defaults(func=cmd_solve)

    p_dist = sub.add_parser("distances", help="distance table toward a target")
    add_common(p_dist)
    p_dist.add_argument("--target", "-z", required=True)
    p_dist.add_argument("--source", "-s")
    p_dist.add_argument("--delta", type=int, default=1)
    p_dist.set_defaults(func=cmd_distances)

    p_val = sub.add_parser("validate", help="check a candidate path")
    add_common(p_val)
    p_val.add_argument("--source", "-s", required=True)
    p_val.add_argument("--target", "-z", required=True)
    p_val.add_argument("--delta", type=int, required=True)
    p_val.add_argument("--path", required=True,
                       help="semicolon-separated steps 'u,v,t;u,v,t;...'")
    p_val.set_defaults(func=cmd_validate)

    p_gen = sub.add_parser("gen", help="emit a random instance as TEL")
    p_gen.add_argument("--vertices", type=int, required=True)
    p_gen.add_argument("--lifetime", type=int, required=True)
    p_gen.add_argument("--edges-per-layer", type=float, required=True)
    p_gen.add_argument("--seed", type=_seed, default=0)
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (CliError, TelParseError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
