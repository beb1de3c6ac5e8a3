"""Command-line interface.

Subcommands:
    compute            assemble feature families for a graph file
    verify             run self-check suites
    demo-expressivity  refinement comparison on built-in or user graphs
    gen                emit generator graphs as JSON
    bench              time a sketched embedding on a random graph

Exit codes: 0 success, 1 verification failure, 2 input error (an
unreadable input or an unwritable output path included), 3 solver
failure. The solver settings of compute and bench are flags only (--tol,
--max-iter), so no environment variable of the package changes a run; the
graph's component sizes and envelope profile pick the solve route, sparse LU
or PCG, which bench reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager

from . import __version__
from .features import (_rewrite, assemble_features, augment_with_rotation,
                       export_features)
from .graph import (CrossComponentError, Graph, GraphInputError,
                    graph_to_json_dict, load_graph)
from .oracle import (build_cycle, build_path, counterexample_pair,
                     random_connected_graph, witness_graph)
from .solvers import SolverConfig, SolverConvergenceError, _plan
from .suites import SUITE_NAMES, run_suites
from .wl import expressivity_report

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_SOLVER_ERROR = 3

_FAMILY_ALIASES = {
    "er": "edge_er",
    "edge_er": "edge_er",
    "ht": "edge_ht",
    "edge_ht": "edge_ht",
    "node-emb": "node_embedding",
    "node_embedding": "node_embedding",
    "edge-emb": "edge_embedding",
    "edge_embedding": "edge_embedding",
}


def _solver_config(args) -> SolverConfig:
    # an out-of-range value raises ValueError, which main reports as exit 2
    return SolverConfig(rel_tolerance=args.tol, max_iterations=args.max_iter)


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float,
                        default=SolverConfig().rel_tolerance,
                        help="relative solver tolerance (default %(default)s)")
    parser.add_argument("--max-iter", type=int, default=None,
                        help="PCG iteration cap (default 10*sqrt(n)+200)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affinity",
        description="Random-walk affinity measures: effective resistances, "
                    "hitting times, and resistive embeddings.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser(
        "compute", help="compute feature families for a graph file")
    p_compute.add_argument("--input", required=True,
                           help="graph file (.json or edge-list text)")
    p_compute.add_argument("--features", default="er",
                           help="comma list: er,ht,node-emb,edge-emb "
                                "(default er)")
    p_compute.add_argument("--epsilon", type=float, default=None,
                           help="sketch distortion; omit for exact features")
    p_compute.add_argument("--seed", type=int, default=0,
                           help="sketch seed (default 0)")
    p_compute.add_argument("--rotate", type=int, default=None, metavar="SEED",
                           help="apply a seeded random rotation to "
                                "embedding-valued families")
    p_compute.add_argument("--format", default="json",
                           choices=("json", "csv", "binary"))
    p_compute.add_argument("--out", required=True,
                           help="output file (json) or directory (csv/binary)")
    _add_solver_flags(p_compute)

    p_verify = sub.add_parser("verify", help="run self-check suites")
    p_verify.add_argument("--suite", default="all",
                          help=f"one of {', '.join(SUITE_NAMES)}, or all")
    p_verify.add_argument("--seed", type=int, default=0)

    p_demo = sub.add_parser("demo-expressivity",
                            help="compare plain and affinity-augmented "
                                 "refinement")
    p_demo.add_argument("--graph", default="witness",
                        help="witness | pair:K | path to a graph file")
    p_demo.add_argument("--json", action="store_true",
                        help="emit the report as JSON")

    p_gen = sub.add_parser("gen", help="emit generator graphs as JSON")
    gen_sub = p_gen.add_subparsers(dest="generator", required=True)
    g_cycle = gen_sub.add_parser("cycle")
    g_cycle.add_argument("--n", type=int, required=True)
    g_cycle.add_argument("--out", default=None)
    g_path = gen_sub.add_parser("path")
    g_path.add_argument("--n", type=int, required=True)
    g_path.add_argument("--out", default=None)
    g_witness = gen_sub.add_parser("witness")
    g_witness.add_argument("--out", default=None)
    g_pair = gen_sub.add_parser("pair")
    g_pair.add_argument("--k", type=int, required=True)
    g_pair.add_argument("--out", required=True,
                        help="directory for cycle.json and path.json")
    g_random = gen_sub.add_parser("random")
    g_random.add_argument("--n", type=int, required=True)
    g_random.add_argument("--avg-degree", type=float, default=4.0)
    g_random.add_argument("--wmin", type=float, default=1.0)
    g_random.add_argument("--wmax", type=float, default=1.0)
    g_random.add_argument("--seed", type=int, default=0)
    g_random.add_argument("--out", default=None)

    p_bench = sub.add_parser("bench",
                             help="time a sketched embedding on a random "
                                  "graph")
    p_bench.add_argument("--n", type=int, default=100_000)
    p_bench.add_argument("--m", type=int, default=1_000_000)
    p_bench.add_argument("--epsilon", type=float, default=0.5)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--track-memory", action="store_true",
                         help="also report peak traced allocations")
    _add_solver_flags(p_bench)

    return parser


@contextmanager
def _writing(path: str):
    """Report an OSError on the output path as an input error (exit 2), as
    an unreadable input is."""
    try:
        yield
    except OSError as exc:
        raise GraphInputError(f"cannot write {path}: {exc}") from exc


def _emit_graph(graph: Graph, out: str | None) -> None:
    text = json.dumps(graph_to_json_dict(graph))
    if out is None:
        print(text)
    else:
        with _writing(out), _rewrite(out, "w") as fh:
            fh.write(text + "\n")


def _cmd_compute(args) -> int:
    config = _solver_config(args)
    graph = load_graph(args.input)
    names = []
    for raw in args.features.split(","):
        raw = raw.strip()
        if not raw:
            continue
        if raw not in _FAMILY_ALIASES:
            raise GraphInputError(
                f"unknown feature family {raw!r}; valid: "
                f"{', '.join(sorted(set(_FAMILY_ALIASES)))}")
        names.append(_FAMILY_ALIASES[raw])
    features = assemble_features(graph, names, epsilon=args.epsilon,
                                 seed=args.seed, config=config)
    if args.rotate is not None:
        features = augment_with_rotation(features, args.rotate)
    with _writing(args.out):
        written = export_features(features, args.format, args.out)
    for file in written:
        print(file)
    return EXIT_OK


def _cmd_verify(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = run_suites(names, seed=args.seed)
    failed = 0
    for result in results:
        print(result.line())
        if not result.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def _cmd_demo(args) -> int:
    selector = args.graph
    if selector == "witness":
        graphs = [("witness", witness_graph())]
    elif selector.startswith("pair:"):
        try:
            k = int(selector.split(":", 1)[1])
        except ValueError:
            raise GraphInputError(
                f"bad pair selector {selector!r}; use pair:K") from None
        cycle, broken = counterexample_pair(k)
        graphs = [(f"cycle(n={cycle.num_nodes})", cycle),
                  (f"broken-cycle(n={broken.num_nodes})", broken)]
    else:
        graphs = [(selector, load_graph(selector))]

    payload = {}
    for name, graph in graphs:
        report = expressivity_report(graph)
        payload[name] = report.to_dict()
        if not args.json:
            print(f"graph {name}: {graph.num_nodes} nodes, "
                  f"{graph.num_edges} edges")
            for variant in ("plain", "er", "ht", "embedding"):
                var = report[variant]
                marker = " (strictly refines plain)" \
                    if var.strictly_refines_plain else ""
                print(f"  {variant:<10} classes={var.num_classes:<3} "
                      f"sizes={var.class_sizes}{marker}")
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.generator == "cycle":
        _emit_graph(build_cycle(args.n), args.out)
    elif args.generator == "path":
        _emit_graph(build_path(args.n), args.out)
    elif args.generator == "witness":
        _emit_graph(witness_graph(), args.out)
    elif args.generator == "pair":
        cycle, broken = counterexample_pair(args.k)
        with _writing(args.out):
            os.makedirs(args.out, exist_ok=True)
        _emit_graph(cycle, os.path.join(args.out, "cycle.json"))
        _emit_graph(broken, os.path.join(args.out, "path.json"))
        print(os.path.join(args.out, "cycle.json"))
        print(os.path.join(args.out, "path.json"))
    elif args.generator == "random":
        graph = random_connected_graph(args.n, args.avg_degree,
                                       (args.wmin, args.wmax), args.seed)
        _emit_graph(graph, args.out)
    return EXIT_OK


def _cmd_bench(args) -> int:
    from .embeddings import sketched_embedding

    config = _solver_config(args)
    if args.n < 2:
        raise ValueError(f"--n must be at least 2, got {args.n}")
    # a connected simple graph has between n - 1 and n(n - 1)/2 edges
    if not args.n - 1 <= args.m <= args.n * (args.n - 1) // 2:
        raise ValueError(f"--m must be in [{args.n - 1}, "
                         f"{args.n * (args.n - 1) // 2}] for --n {args.n}, "
                         f"got {args.m}")
    avg_degree = 2.0 * args.m / args.n
    build_start = time.perf_counter()
    graph = random_connected_graph(args.n, avg_degree, seed=args.seed)
    build_time = time.perf_counter() - build_start

    if args.track_memory:
        tracemalloc.start()
    sketch_start = time.perf_counter()
    embedding = sketched_embedding(graph, args.epsilon, args.seed, config)
    sketch_time = time.perf_counter() - sketch_start
    peak = None
    if args.track_memory:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

    report = {
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "epsilon": args.epsilon,
        "sketch_dim": embedding.dim,
        "route": _plan(graph, solve=True).route,
        "build_seconds": round(build_time, 3),
        "sketch_seconds": round(sketch_time, 3),
    }
    if peak is not None:
        report["peak_traced_mb"] = round(peak / 1e6, 1)
    print(json.dumps(report, indent=2))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "compute": _cmd_compute,
        "verify": _cmd_verify,
        "demo-expressivity": _cmd_demo,
        "gen": _cmd_gen,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except (GraphInputError, CrossComponentError, FileNotFoundError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except SolverConvergenceError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR


if __name__ == "__main__":
    sys.exit(main())
