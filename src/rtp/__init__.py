"""Short restless temporal path toolkit.

Decide and reconstruct waiting-time-bounded chronological simple paths in
temporal graphs, with work exponential only in how far the length budget
exceeds the unrestricted temporal distance.
"""

from .areas import AreaGraph, AreaSpec, area_graph, area_spec
from .distances import (INF, DistanceTable, compute_distances,
                        restless_walk_distance)
from .generate import random_temporal_graph
from .path_finder import (FinderConfig, SolveStats, find_exact_restless_path,
                          find_exact_restless_path_brute,
                          find_exact_restless_path_sieve)
from .solver import (DpTable, SolveResult, fill_table, reconstruct, solve,
                     solve_windowed)
from .temporal_graph import (PathValidationError, RestlessPath, TelParseError,
                             TemporalGraph, TimeEdge, VertexAppearance,
                             parse_temporal_graph, serialize_temporal_graph,
                             validate_restless_path)

__version__ = "0.1.0"

__all__ = [
    "AreaGraph", "AreaSpec", "area_graph", "area_spec",
    "INF", "DistanceTable", "compute_distances", "restless_walk_distance",
    "random_temporal_graph",
    "FinderConfig", "SolveStats", "find_exact_restless_path",
    "find_exact_restless_path_brute", "find_exact_restless_path_sieve",
    "DpTable", "SolveResult", "fill_table", "reconstruct", "solve",
    "solve_windowed",
    "PathValidationError", "RestlessPath", "TelParseError", "TemporalGraph",
    "TimeEdge", "VertexAppearance", "parse_temporal_graph",
    "serialize_temporal_graph", "validate_restless_path",
    "__version__",
]
