"""Outside-in tracing of the package's layers.

``tracing`` rebinds public functions of ``affinity.*`` to timing wrappers in
every package module namespace that holds them (so names imported with
``from .x import y`` are caught too), patches ``AffinityTable.exact`` on the
class, and restores everything on exit. The ``pcg`` wrapper wraps the
``matvec`` and ``project`` callables it receives, which yields matvec and
projection time and the iteration count without touching the solver.

Spans (name, start, end, parent) are kept in memory; ``layer_metrics``
reduces them to self times and counts per pass over the workload's jobs.
tracemalloc slows every allocation, so it runs only in one extra job after
the timed passes (``MEMORY_PASS``), which gives ``features.assemble_peak_mb``.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Per-layer metrics with their units, in print order.
LAYER_METRICS = {
    "solvers.pcg_s": "s", "solvers.pcg_overhead_s": "s",
    "solvers.pcg_iterations": "count", "solvers.pcg_iters_per_call": "count",
    "solvers.matvec_s": "s", "solvers.matvec_calls": "count",
    "solvers.matvec_flops": "flop", "solvers.matvec_bytes": "B",
    "solvers.project_s": "s", "solvers.project_calls": "count",
    "solvers.failed_solves": "count",
    "solvers.solve_s": "s", "solvers.solve_calls": "count",
    "solvers.laplacian_s": "s", "solvers.pinv_s": "s",
    "solvers.pinv_calls": "count",
    "embeddings.sketch_s": "s", "embeddings.sketch_self_s": "s",
    "embeddings.sketch_dim": "count", "embeddings.k_over_m": "ratio",
    "embeddings.exact_s": "s",
    "measures.table_exact_s": "s", "measures.hitting_exact_s": "s",
    "measures.hitting_exact_calls": "count",
    "features.assemble_s": "s", "features.assemble_self_s": "s",
    "features.assemble_peak_mb": "MB", "features.rotate_s": "s",
    "features.export_s.binary": "s", "features.export_s.csv": "s",
    "features.export_s.json": "s", "features.export_mb.binary": "MB",
    "features.export_mb.csv": "MB", "features.export_mb.json": "MB",
    "features.load_s.csv": "s", "features.load_s.json": "s",
    "wl.report_s": "s", "wl.report_self_s": "s", "wl.refine_s": "s",
    "wl.refine_calls": "count",
    "graph.load_s": "s", "graph.parse_s": "s", "graph.build_s": "s",
    "trace.wall_s": "s", "trace.layers_self_share": "ratio",
    "trace.overhead_s": "s",
}

ROOT_SPAN = "job"
#: Pass number of the extra job that measures memory; not a timed pass.
MEMORY_PASS = -1


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    failed: bool = False
    info: dict = field(default_factory=dict)


class Recorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.graphs: list = []
        self.track_memory = False

    def open(self, name: str, **info) -> int | None:
        """Open a span, or return None when the innermost open span has the
        same name (a wrapped callable that calls a wrapped function)."""
        if self.stack and self.spans[self.stack[-1]].name == name:
            return None
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, info=info))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int | None, failed: bool = False) -> Span | None:
        if index is None:
            return None
        span = self.spans[index]
        span.end = time.perf_counter()
        span.failed = failed
        self.stack.pop()
        return span

    def timed(self, name, fn, after=None, memory=False):
        """Wrap ``fn`` in a span. ``name`` is a string or a function of the
        call's (args, kwargs); ``after(span, args, kwargs, result)`` adds
        counts; ``memory`` records the tracemalloc peak of the call while
        ``track_memory`` is set."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            graph = args[0] if args and hasattr(args[0], "num_edges") else None
            measure = memory and self.track_memory
            started = measure and not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            if measure:
                tracemalloc.reset_peak()
            index = self.open(label)
            if graph is not None:
                self.graphs.append(graph)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                span = self.close(index, failed)
                if graph is not None:
                    self.graphs.pop()
                if measure and span is not None:
                    span.info["peak_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
                if started:
                    tracemalloc.stop()
            if span is not None and after is not None:
                after(span, args, kwargs, result)
            return result
        return wrapper


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs.get(key)


def _pcg_wrapper(rec: Recorder, fn):
    timed = rec.timed("solvers.pcg", fn)

    @functools.wraps(fn)
    def wrapper(matvec, precond_diag_inv, rhs, *args, **kwargs):
        graph = rec.graphs[-1] if rec.graphs else None
        n = graph.num_nodes if graph is not None else rhs.shape[0]
        nnz = n + 2 * graph.num_edges if graph is not None else 0

        def traced_matvec(block):
            index = rec.open("solvers.matvec", nnz=nnz, n=n, cols=block.shape[1])
            try:
                return matvec(block)
            finally:
                rec.close(index)

        project = kwargs.pop("project", args[2] if len(args) > 2 else None)
        if project is not None:
            kwargs["project"] = rec.timed("solvers.project", project)
        return timed(traced_matvec, precond_diag_inv, rhs, *args[:2], **kwargs)
    return wrapper


def _record_sketch(span, args, kwargs, result):
    span.info.update(k=result.dim, m=args[0].num_edges)


def _record_export(span, args, kwargs, result):
    span.info["bytes"] = sum(p.stat().st_size for p in result if p.is_file())


def _patch_table(af, rec: Recorder) -> list[tuple]:
    """(module, function name, wrapper) for every traced function."""
    fmt_export = lambda a, k: f"features.export.{_arg(a, k, 1, 'fmt')}"
    fmt_load = lambda a, k: f"features.load.{_arg(a, k, 1, 'fmt')}"
    plain = {
        af.graph: {"load_graph": "graph.load", "graph_from_json": "graph.parse",
                   "graph_from_edgelist": "graph.parse",
                   "build_graph": "graph.build"},
        af.solvers: {"solve_laplacian": "solvers.solve",
                     "project_out_nullspace": "solvers.project",
                     "laplacian_csr": "solvers.laplacian",
                     "dense_laplacian": "solvers.laplacian",
                     "dense_pseudoinverse": "solvers.pinv"},
        af.embeddings: {"exact_embedding": "embeddings.exact"},
        af.measures: {"hitting_time_exact": "measures.hitting_exact"},
        af.features: {"augment_with_rotation": "features.rotate"},
        af.wl: {"expressivity_report": "wl.report", "wl_refine": "wl.refine"},
    }
    table = [(module, fname, rec.timed(label, getattr(module, fname)))
             for module, names in plain.items()
             for fname, label in names.items()]
    table += [
        (af.solvers, "pcg", _pcg_wrapper(rec, af.solvers.pcg)),
        (af.embeddings, "sketched_embedding",
         rec.timed("embeddings.sketch", af.embeddings.sketched_embedding,
                   after=_record_sketch)),
        (af.features, "assemble_features",
         rec.timed("features.assemble", af.features.assemble_features,
                   memory=True)),
        (af.features, "export_features",
         rec.timed(fmt_export, af.features.export_features,
                   after=_record_export)),
        (af.features, "load_features",
         rec.timed(fmt_load, af.features.load_features)),
    ]
    return table


@contextmanager
def tracing(af, rec: Recorder):
    """Install the timing wrappers for the duration of the block."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "affinity"
                                     or name.startswith("affinity."))]
    undo = []
    try:
        for module, fname, wrapper in _patch_table(af, rec):
            original = getattr(module, fname)
            for target in modules:
                for attr, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, attr, wrapper)
                        undo.append((target, attr, original))
        table = af.measures.AffinityTable
        exact = table.__dict__["exact"]
        table.exact = classmethod(rec.timed("measures.table_exact",
                                            exact.__func__))
        undo.append((table, "exact", exact))
        yield rec
    finally:
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)


# ----------------------------------------------------------------- reduction

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def self_table(spans: list[Span]) -> dict[str, dict]:
    """Inclusive time, self time, calls and failures per span name."""
    table: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"total_s": 0.0, "self_s": 0.0,
                                           "calls": 0, "failed": 0})
        row["total_s"] += span.end - span.start
        row["self_s"] += own
        row["calls"] += 1
        row["failed"] += int(span.failed)
    return table


def _pass_metrics(spans: list[Span]) -> dict[str, float]:
    rows = self_table(spans)
    get = lambda name, key="total_s": rows.get(name, {}).get(key, 0.0)
    export = {fmt: [s for s in spans if s.name == f"features.export.{fmt}"]
              for fmt in ("binary", "csv", "json")}
    under_pcg = [s for s in spans if s.parent >= 0
                 and spans[s.parent].name == "solvers.pcg"]
    matvecs = [s for s in under_pcg if s.name == "solvers.matvec"]
    in_pcg = lambda name: sum(s.end - s.start for s in under_pcg
                              if s.name == name)
    sketches = [s.info for s in spans if s.name == "embeddings.sketch"
                and "k" in s.info]
    graph_top = [s for s in spans if s.name.startswith("graph.")
                 and (s.parent < 0
                      or not spans[s.parent].name.startswith("graph."))]
    graph_load = sum(s.end - s.start for s in graph_top)
    wall = get(ROOT_SPAN)
    pcg_calls = get("solvers.pcg", "calls")
    out = {
        "solvers.pcg_s": get("solvers.pcg"),
        "solvers.pcg_overhead_s": get("solvers.pcg")
        - in_pcg("solvers.matvec") - in_pcg("solvers.project"),
        "solvers.pcg_iterations": len(matvecs),
        "solvers.pcg_iters_per_call": len(matvecs) / pcg_calls
        if pcg_calls else 0.0,
        "solvers.matvec_s": get("solvers.matvec"),
        "solvers.matvec_calls": get("solvers.matvec", "calls"),
        "solvers.matvec_flops": sum(2 * s.info["nnz"] * s.info["cols"]
                                    for s in matvecs),
        "solvers.matvec_bytes": sum(12 * s.info["nnz"]
                                    + 16 * s.info["n"] * s.info["cols"]
                                    for s in matvecs),
        "solvers.project_s": get("solvers.project"),
        "solvers.project_calls": get("solvers.project", "calls"),
        "solvers.failed_solves": get("solvers.pcg", "failed"),
        "solvers.solve_s": get("solvers.solve"),
        "solvers.solve_calls": get("solvers.solve", "calls"),
        "solvers.laplacian_s": get("solvers.laplacian"),
        "solvers.pinv_s": get("solvers.pinv"),
        "solvers.pinv_calls": get("solvers.pinv", "calls"),
        "embeddings.sketch_s": get("embeddings.sketch"),
        "embeddings.sketch_self_s": get("embeddings.sketch", "self_s"),
        "embeddings.sketch_dim": statistics.fmean(i["k"] for i in sketches)
        if sketches else 0.0,
        "embeddings.k_over_m": statistics.fmean(i["k"] / i["m"]
                                                for i in sketches)
        if sketches else 0.0,
        "embeddings.exact_s": get("embeddings.exact"),
        "measures.table_exact_s": get("measures.table_exact"),
        "measures.hitting_exact_s": get("measures.hitting_exact"),
        "measures.hitting_exact_calls": get("measures.hitting_exact", "calls"),
        "features.assemble_s": get("features.assemble"),
        "features.assemble_self_s": get("features.assemble", "self_s"),
        "features.rotate_s": get("features.rotate"),
        "wl.report_s": get("wl.report"),
        "wl.report_self_s": get("wl.report", "self_s"),
        "wl.refine_s": get("wl.refine"),
        "wl.refine_calls": get("wl.refine", "calls"),
        "graph.load_s": graph_load,
        "graph.parse_s": graph_load - get("graph.build"),
        "graph.build_s": get("graph.build"),
        "trace.wall_s": wall,
        "trace.layers_self_share": (wall - get(ROOT_SPAN, "self_s")) / wall
        if wall else 0.0,
    }
    for fmt, items in export.items():
        out[f"features.export_s.{fmt}"] = sum(s.end - s.start for s in items)
        out[f"features.export_mb.{fmt}"] = sum(s.info.get("bytes", 0)
                                               for s in items) / 1e6
    for fmt in ("csv", "json"):
        out[f"features.load_s.{fmt}"] = get(f"features.load.{fmt}")
    return out


def passes_of(spans: list[Span]) -> dict[int, list[Span]]:
    """Split spans by the ``pass`` tag of their root span, re-indexing
    parents within each pass."""
    groups: dict[int, list[Span]] = {}
    where: list[tuple[int, int]] = []
    for span in spans:
        key = span.info["pass"] if span.parent < 0 else where[span.parent][0]
        group = groups.setdefault(key, [])
        parent = where[span.parent][1] if span.parent >= 0 else -1
        where.append((key, len(group)))
        group.append(Span(span.name, span.start, parent, span.end,
                          span.failed, span.info))
    return groups


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Median over the timed passes of each per-pass layer metric, plus the
    assemble peak from the memory pass (``trace.overhead_s`` needs an
    untraced run and is filled in by the caller)."""
    groups = passes_of(spans)
    memory = groups.pop(MEMORY_PASS, [])
    per_pass = [_pass_metrics(group) for group in groups.values()]
    out = {name: statistics.median(p[name] for p in per_pass)
           for name in per_pass[0]}
    out["features.assemble_peak_mb"] = max(
        (s.info.get("peak_mb", 0.0) for s in memory
         if s.name == "features.assemble"), default=0.0)
    return out
