"""Random-walk affinity measures on weighted graphs.

Effective resistances, hitting and commute times, and resistive embeddings,
computed exactly on small graphs or through random-sign sketching plus Laplacian
solves on large ones, with refinement-based expressivity demos.
"""

__version__ = "0.1.0"

from .embeddings import (ResistiveEmbedding, exact_embedding, jl_dimension,
                         random_rotation, sketched_embedding)
from .features import (FeatureSet, assemble_features, augment_with_rotation,
                       export_features, load_features)
from .graph import (CrossComponentError, Graph, GraphInputError, build_graph,
                    graph_from_edgelist, graph_from_json, graph_to_json_dict,
                    load_graph, stationary_distribution)
from .measures import (AffinityTable, commute_time, effective_resistance,
                       effective_resistance_from_embedding, hitting_time_exact,
                       hitting_time_via_embedding, tetali_hitting_time)
from .oracle import (broken_cycle_resistance, build_cycle, build_path,
                     counterexample_pair, cycle_resistance,
                     grounded_hitting_times, random_connected_graph,
                     witness_graph)
from .solvers import (SolverConfig, SolverConvergenceError, dense_laplacian,
                      dense_pseudoinverse, project_out_nullspace,
                      solve_laplacian)
from .wl import (Coloring, ExpressivityReport, expressivity_report,
                 quantize_edge_values, refines, wl_refine)

__all__ = [
    "ResistiveEmbedding", "exact_embedding", "jl_dimension",
    "random_rotation", "sketched_embedding",
    "FeatureSet", "assemble_features", "augment_with_rotation",
    "export_features", "load_features", "CrossComponentError", "Graph",
    "GraphInputError", "build_graph", "graph_from_edgelist",
    "graph_from_json", "graph_to_json_dict", "load_graph",
    "stationary_distribution",
    "AffinityTable", "commute_time", "effective_resistance",
    "effective_resistance_from_embedding", "hitting_time_exact",
    "hitting_time_via_embedding", "tetali_hitting_time",
    "broken_cycle_resistance", "build_cycle", "build_path",
    "counterexample_pair", "cycle_resistance",
    "grounded_hitting_times", "random_connected_graph", "witness_graph",
    "SolverConfig", "SolverConvergenceError", "dense_laplacian",
    "dense_pseudoinverse", "project_out_nullspace", "solve_laplacian",
    "Coloring",
    "ExpressivityReport", "expressivity_report", "quantize_edge_values",
    "refines", "wl_refine",
]
