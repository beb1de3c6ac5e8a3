"""Weighted undirected graphs stored as flat edge arrays.

The :class:`Graph` container is the input type for everything else in this
package. It keeps the edge list in canonical form (endpoints ordered, parallel
edges merged by summing weights) and precomputes weighted degrees, connected
components and the sparse Laplacian, its one adjacency structure.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.csgraph import connected_components


class GraphInputError(ValueError):
    """Malformed graph input: bad node ids, bad weights, or unparsable files."""


class CrossComponentError(ValueError):
    """A pairwise quantity was requested across two different connected
    components, where the effective resistance is infinite."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected weighted graph in canonical edge-array form.

    Every field but the edge arrays is derived from them by
    :func:`build_graph`; the Laplacian is the only adjacency structure kept.

    Attributes:
        num_nodes: Number of nodes; node ids are 0..num_nodes-1.
        edge_u: (m,) int64 array, first endpoint of each edge, edge_u < edge_v.
        edge_v: (m,) int64 array, second endpoint of each edge.
        edge_w: (m,) float64 array of positive edge weights.
        degrees: (n,) float64 weighted degrees.
        total_weight: Sum of all edge weights (written M in the docstrings).
        component_of: (n,) int array of connected-component labels.
        num_components: Number of connected components.
        laplacian: (n, n) scipy CSR Laplacian L = D - A, built once by
            :func:`build_graph` and shared by every solve; its arrays are
            read-only.
    """

    num_nodes: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray
    degrees: np.ndarray = field(repr=False)
    total_weight: float = field(repr=False)
    component_of: np.ndarray = field(repr=False)
    num_components: int = field(repr=False)
    laplacian: sparse.csr_matrix = field(repr=False)

    @property
    def num_edges(self) -> int:
        return int(self.edge_u.shape[0])

    def component_nodes(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.component_of == label)

    def same_component(self, u: int, v: int) -> bool:
        return bool(self.component_of[u] == self.component_of[v])

    def __repr__(self) -> str:  # keep the dataclass repr short
        return (f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges}, "
                f"num_components={self.num_components}, "
                f"total_weight={self.total_weight:g})")


def _is_int(value) -> bool:
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_edge_columns(edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split an (m, 2) / (m, 3) array, or a sequence of (u, v) / (u, v, w)
    items of int, float or numpy numbers (not booleans), into (u, v, w)
    columns, defaulting weights to 1."""
    # an object array may hold Python ints of any size: read it item by item
    if isinstance(edges, np.ndarray) and edges.dtype != object:
        if edges.size == 0:
            return (np.zeros(0, np.int64), np.zeros(0, np.int64),
                    np.zeros(0, np.float64))
        if edges.dtype == bool or edges.ndim != 2 or edges.shape[1] not in (2, 3):
            raise GraphInputError(f"edge array must be numeric of shape (m, 2) "
                                  f"or (m, 3), got {edges.dtype} {edges.shape}")
        ucol = edges[:, 0]
        vcol = edges[:, 1]
        wcol = edges[:, 2].astype(np.float64) if edges.shape[1] == 3 \
            else np.ones(edges.shape[0], np.float64)
        return ucol, vcol, wcol

    us: list = []
    vs: list = []
    ws: list = []
    for i, item in enumerate(edges):
        try:
            item = tuple(item)
        except TypeError:
            item = (item,)
        if len(item) not in (2, 3):
            raise GraphInputError(
                f"edge {i}: expected (u, v) or (u, v, w), got {item!r}")
        u, v, w = (*item, 1.0)[:3]  # the weight defaults to 1
        us.append(u)
        vs.append(v)
        ws.append(w)
    # judge each distinct type once; scan the edges only to name a bad one
    bad = {t for t in set(map(type, us + vs + ws))
           if issubclass(t, (bool, np.bool_))
           or not issubclass(t, (int, float, np.integer, np.floating))}
    if bad:
        i, part = next((i, part) for i, edge in enumerate(zip(us, vs, ws))
                       for part in edge if type(part) in bad)
        edge = (us[i], vs[i], ws[i])
        raise GraphInputError(
            f"edge {i}: {edge!r} holds a boolean"
            if isinstance(part, (bool, np.bool_))
            else f"edge {i}: {part!r} in {edge!r} is not a number")
    try:
        return tuple(np.asarray(col, dtype=np.float64) for col in (us, vs, ws))
    except OverflowError:  # a Python int beyond the float64 range
        i, name, part = next(
            (i, name, part) for i, edge in enumerate(zip(us, vs, ws))
            for name, part in zip(("first endpoint", "second endpoint",
                                   "weight"), edge)
            if abs(part) > sys.float_info.max)
        digits = math.floor(math.log10(abs(part))) + 1
        raise GraphInputError(f"edge {i}: {name} has {digits} digits, beyond "
                              f"the float64 range") from None


def _node_ids(ucol: np.ndarray, vcol: np.ndarray,
              num_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Both endpoint columns as int64 node ids, checked to be integers in
    range before the cast, so an id of 2**63 or more is named, not wrapped."""
    u, v = (col if col.dtype.kind in "iu" else col.astype(np.float64)
            for col in (ucol, vcol))
    for col, name in ((u, "first"), (v, "second")):
        bad = np.flatnonzero(~np.isfinite(col) | (col != np.floor(col)))
        if bad.size:
            raise GraphInputError(f"edge {bad[0]}: {name} endpoint "
                                  f"{col[bad[0]]!r} is not an integer")
    out_of_range = (u < 0) | (u >= num_nodes) | (v < 0) | (v >= num_nodes)
    if np.any(out_of_range):
        bad = int(np.flatnonzero(out_of_range)[0])
        # int() of an integral float or a numpy integer is exact
        raise GraphInputError(f"edge {bad}: endpoint ({int(u[bad])}, "
                              f"{int(v[bad])}) outside 0..{num_nodes - 1}")
    return u.astype(np.int64), v.astype(np.int64)


def build_graph(num_nodes: int, edges) -> Graph:
    """Validate an edge list and build a canonical :class:`Graph`.

    Accepts edges as an (m, 2) or (m, 3) array, or any iterable of
    ``(u, v)`` / ``(u, v, w)`` tuples; omitted weights default to 1.0.
    Self-loops are rejected. Parallel edges are merged by summing their
    weights, keeping first-occurrence order.

    Raises:
        GraphInputError: on out-of-range ids, self-loops, weights that
            are not finite and strictly positive, or a node count whose
            degree array cannot be allocated.
    """
    if not _is_int(num_nodes) or num_nodes < 0:
        raise GraphInputError(f"num_nodes must be a non-negative int, got {num_nodes!r}")
    num_nodes = int(num_nodes)

    ucol, vcol, wcol = _as_edge_columns(edges)
    u, v = _node_ids(ucol, vcol, num_nodes)
    w = np.asarray(wcol, dtype=np.float64)
    loops = u == v
    if np.any(loops):
        bad = int(np.flatnonzero(loops)[0])
        raise GraphInputError(f"edge {bad}: self-loop at node {u[bad]} not allowed")
    bad_w = ~np.isfinite(w) | (w <= 0)
    if np.any(bad_w):
        bad = int(np.flatnonzero(bad_w)[0])
        raise GraphInputError(
            f"edge {bad}: weight {w[bad]!r} must be finite and > 0")

    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    if lo.size:
        # Merge parallel edges: group by canonical endpoint pair, keep the
        # order in which each pair first appeared.
        keys = lo * np.int64(num_nodes) + hi
        uniq, first_pos, inverse = np.unique(keys, return_index=True,
                                             return_inverse=True)
        order = np.argsort(first_pos, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        group = rank[inverse]
        edge_u = lo[first_pos[order]]
        edge_v = hi[first_pos[order]]
        edge_w = np.bincount(group, weights=w, minlength=order.size)
    else:
        edge_u = np.zeros(0, np.int64)
        edge_v = np.zeros(0, np.int64)
        edge_w = np.zeros(0, np.float64)

    # bincount of an empty array is int64 whatever the weights
    try:
        degrees = (np.bincount(edge_u, weights=edge_w, minlength=num_nodes)
                   + np.bincount(edge_v, weights=edge_w, minlength=num_nodes)
                   ).astype(np.float64, copy=False)
    except MemoryError as exc:  # the first array of num_nodes entries
        raise GraphInputError(f"{num_nodes} nodes cannot be allocated: "
                              f"{exc}") from None
    total_weight = float(edge_w.sum())

    nodes = np.arange(num_nodes)
    laplacian = sparse.coo_matrix(
        (np.concatenate([-edge_w, -edge_w, degrees]),
         (np.concatenate([edge_u, edge_v, nodes]),
          np.concatenate([edge_v, edge_u, nodes]))),
        shape=(num_nodes, num_nodes)).tocsr()
    for arr in (laplacian.data, laplacian.indices, laplacian.indptr):
        arr.setflags(write=False)
    # labels are numbered by each component's lowest node; L is symmetric, so
    # its strong components are the components, without a transposed copy
    num_comp, comp = connected_components(laplacian, directed=True,
                                          connection="strong")

    return Graph(
        num_nodes=num_nodes,
        edge_u=edge_u, edge_v=edge_v, edge_w=edge_w,
        degrees=degrees, total_weight=total_weight,
        component_of=comp, num_components=int(num_comp),
        laplacian=laplacian,
    )


def stationary_distribution(graph: Graph) -> np.ndarray:
    """Stationary distribution of the natural random walk, the (n,) array
    pi_u = d_u / (2M)."""
    if graph.num_nodes == 0 or graph.total_weight <= 0:
        raise GraphInputError(
            "stationary distribution needs at least one edge")
    return graph.degrees / (2.0 * graph.total_weight)


def graph_from_json(text: str | bytes | dict) -> Graph:
    """Parse the JSON graph format.

    Expected shape: ``{"num_nodes": n, "edges": [[u, v], [u, v, w], ...]}``
    with weights optional per edge (default 1.0).
    """
    if isinstance(text, (str, bytes)):
        try:
            obj = json.loads(text)
        except ValueError as exc:  # JSONDecodeError, or an int literal
            # beyond Python's digit limit for int conversion
            raise GraphInputError(f"invalid JSON: {exc}") from exc
    else:
        obj = text
    if not isinstance(obj, dict):
        raise GraphInputError("top-level JSON value must be an object")
    if "num_nodes" not in obj:
        raise GraphInputError("missing required key 'num_nodes'")
    if "edges" not in obj:
        raise GraphInputError("missing required key 'edges'")
    num_nodes = obj["num_nodes"]
    if not isinstance(num_nodes, int) or isinstance(num_nodes, bool):
        raise GraphInputError(f"'num_nodes' must be an integer, got {num_nodes!r}")
    edges_raw = obj["edges"]
    if not isinstance(edges_raw, list):
        raise GraphInputError("'edges' must be a list")
    return build_graph(num_nodes, edges_raw)


def _excerpt(text: str) -> str:
    """repr of text, cut to its first 60 characters when longer."""
    if len(text) <= 60:
        return repr(text)
    return f"{text[:60]!r}... ({len(text)} characters)"


#: What ``int`` accepts as a base-10 literal; ``int`` refuses one only for
#: having more digits than ``sys.get_int_max_str_digits()``.
_DECIMAL_INT = re.compile(r"[+-]?\d+(?:_\d+)*")


def graph_from_edgelist(text: str) -> Graph:
    """Parse whitespace-separated edge-list text: one ``u v [w]`` per line.

    Blank lines and lines starting with ``#`` are skipped. The node count is
    ``max id + 1``. Errors carry the 1-based line number and at most the
    first 60 characters of the offending text.
    """
    edges: list[tuple] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphInputError(
                f"line {lineno}: expected 'u v' or 'u v w', got {_excerpt(line)}")
        ends = []
        for name, part in zip(("first", "second"), parts):
            try:
                ends.append(int(part))
            except ValueError:
                if _DECIMAL_INT.fullmatch(part):  # refused for its length
                    digits = part.lstrip("+-").replace("_", "").lstrip("0")
                    raise GraphInputError(
                        f"edge {len(edges)}: {name} endpoint has "
                        f"{len(digits)} digits, beyond the float64 range"
                    ) from None
                raise GraphInputError(
                    f"line {lineno}: endpoints must be integers, got "
                    f"{_excerpt(line)}") from None
        u, v = ends
        w = 1.0
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise GraphInputError(
                    f"line {lineno}: weight must be a number, got "
                    f"{_excerpt(parts[2])}") from None
        edges.append((u, v, w))
    if not edges:
        raise GraphInputError("edge-list input contains no edges")
    num_nodes = max(max(u, v) for u, v, _ in edges) + 1
    return build_graph(num_nodes, edges)


def load_graph(path: str | Path) -> Graph:
    """Load a graph from a ``.json`` file or an edge-list text file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise GraphInputError(f"cannot read {path}: {exc}") from exc
    if path.suffix.lower() == ".json":
        return graph_from_json(text)
    return graph_from_edgelist(text)


def graph_to_json_dict(graph: Graph) -> dict:
    """Serialize back to the JSON graph format (weights always explicit)."""
    edges = [[int(u), int(v), float(w)]
             for u, v, w in zip(graph.edge_u, graph.edge_v, graph.edge_w)]
    return {"num_nodes": graph.num_nodes, "edges": edges}
