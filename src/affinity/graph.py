"""Weighted undirected graphs stored as flat edge arrays.

The :class:`Graph` container is the input type for everything else in this
package. It keeps the edge list in canonical form (endpoints ordered, parallel
edges merged by summing weights), precomputes weighted degrees, the sparse
Laplacian and connected components, and carries a CSR-style adjacency usable
for walks and refinement.
"""

from __future__ import annotations

import json
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

    Attributes:
        num_nodes: Number of nodes; node ids are 0..num_nodes-1.
        edge_u: (m,) int64 array, first endpoint of each edge, edge_u < edge_v.
        edge_v: (m,) int64 array, second endpoint of each edge.
        edge_w: (m,) float64 array of positive edge weights.
        degrees: (n,) float64 weighted degrees.
        total_weight: Sum of all edge weights (written M in the docstrings).
        component_of: (n,) int array of connected-component labels.
        num_components: Number of connected components.
        nbr_indptr / nbr_indices / nbr_weights: CSR adjacency over incidences;
            the neighbors of u live at indices nbr_indptr[u]:nbr_indptr[u+1].
        nbr_edge_ids: Edge-list index of each incidence.
        nbr_forward: True where the incidence leaves edge_u (i.e. points
            u -> v in canonical edge order); used for directed edge colors.
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
    nbr_indptr: np.ndarray = field(repr=False)
    nbr_indices: np.ndarray = field(repr=False)
    nbr_weights: np.ndarray = field(repr=False)
    nbr_edge_ids: np.ndarray = field(repr=False)
    nbr_forward: np.ndarray = field(repr=False)
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


def _as_edge_columns(edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split an edge sequence into (u, v, w) columns, defaulting weights to 1."""
    if isinstance(edges, np.ndarray):
        if edges.size == 0:
            return (np.zeros(0, np.int64), np.zeros(0, np.int64),
                    np.zeros(0, np.float64))
        if edges.ndim != 2 or edges.shape[1] not in (2, 3):
            raise GraphInputError(
                f"edge array must have shape (m, 2) or (m, 3), got {edges.shape}")
        ucol = edges[:, 0]
        vcol = edges[:, 1]
        wcol = edges[:, 2].astype(np.float64) if edges.shape[1] == 3 \
            else np.ones(edges.shape[0], np.float64)
        return ucol, vcol, wcol

    us: list = []
    vs: list = []
    ws: list = []
    for i, item in enumerate(edges):
        item = tuple(item)
        if len(item) == 2:
            u, v = item
            w = 1.0
        elif len(item) == 3:
            u, v, w = item
        else:
            raise GraphInputError(
                f"edge {i}: expected (u, v) or (u, v, w), got {item!r}")
        us.append(u)
        vs.append(v)
        ws.append(w)
    return (np.asarray(us, dtype=np.float64) if us else np.zeros(0, np.int64),
            np.asarray(vs, dtype=np.float64) if vs else np.zeros(0, np.int64),
            np.asarray(ws, dtype=np.float64))


def _check_integral_ids(col: np.ndarray, name: str) -> np.ndarray:
    if col.dtype.kind in "iu":
        return col.astype(np.int64)
    as_float = np.asarray(col, dtype=np.float64)
    if not np.all(np.isfinite(as_float)) or np.any(as_float != np.floor(as_float)):
        bad = int(np.flatnonzero(~np.isfinite(as_float)
                                 | (as_float != np.floor(as_float)))[0])
        raise GraphInputError(
            f"edge {bad}: {name} endpoint {as_float[bad]!r} is not an integer")
    return as_float.astype(np.int64)


def build_graph(num_nodes: int, edges) -> Graph:
    """Validate an edge list and build a canonical :class:`Graph`.

    Accepts edges as an (m, 2) or (m, 3) array, or any iterable of
    ``(u, v)`` / ``(u, v, w)`` tuples; omitted weights default to 1.0.
    Self-loops are rejected. Parallel edges are merged by summing their
    weights, keeping first-occurrence order.

    Raises:
        GraphInputError: on out-of-range ids, self-loops, or weights that
            are not finite and strictly positive.
    """
    if not isinstance(num_nodes, (int, np.integer)) or num_nodes < 0:
        raise GraphInputError(f"num_nodes must be a non-negative int, got {num_nodes!r}")
    num_nodes = int(num_nodes)

    ucol, vcol, wcol = _as_edge_columns(edges)
    u = _check_integral_ids(ucol, "first")
    v = _check_integral_ids(vcol, "second")
    w = np.asarray(wcol, dtype=np.float64)

    out_of_range = (u < 0) | (u >= num_nodes) | (v < 0) | (v >= num_nodes)
    if np.any(out_of_range):
        bad = int(np.flatnonzero(out_of_range)[0])
        raise GraphInputError(
            f"edge {bad}: endpoint ({u[bad]}, {v[bad]}) outside 0..{num_nodes - 1}")
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
    degrees = (np.bincount(edge_u, weights=edge_w, minlength=num_nodes)
               + np.bincount(edge_v, weights=edge_w, minlength=num_nodes)
               ).astype(np.float64, copy=False)
    total_weight = float(edge_w.sum())

    m = edge_u.shape[0]
    src = np.concatenate([edge_u, edge_v])
    dst = np.concatenate([edge_v, edge_u])
    eid = np.concatenate([np.arange(m, dtype=np.int64)] * 2) if m else \
        np.zeros(0, np.int64)
    fwd = np.concatenate([np.ones(m, bool), np.zeros(m, bool)])
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(num_nodes + 1, np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
    nbr_indices = dst[order]
    nbr_weights = np.concatenate([edge_w, edge_w])[order]

    nodes = np.arange(num_nodes)
    laplacian = sparse.coo_matrix(
        (np.concatenate([-edge_w, -edge_w, degrees]),
         (np.concatenate([edge_u, edge_v, nodes]),
          np.concatenate([edge_v, edge_u, nodes]))),
        shape=(num_nodes, num_nodes)).tocsr()
    for arr in (laplacian.data, laplacian.indices, laplacian.indptr):
        arr.setflags(write=False)
    # labels are numbered by each component's lowest node
    num_comp, comp = connected_components(laplacian, directed=False)

    return Graph(
        num_nodes=num_nodes,
        edge_u=edge_u, edge_v=edge_v, edge_w=edge_w,
        degrees=degrees, total_weight=total_weight,
        component_of=comp, num_components=int(num_comp),
        nbr_indptr=indptr,
        nbr_indices=nbr_indices,
        nbr_weights=nbr_weights,
        nbr_edge_ids=eid[order],
        nbr_forward=fwd[order],
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
        except json.JSONDecodeError as exc:
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
    edges: list[tuple] = []
    for i, entry in enumerate(edges_raw):
        if not isinstance(entry, (list, tuple)) or len(entry) not in (2, 3):
            raise GraphInputError(
                f"edge {i}: expected [u, v] or [u, v, w], got {entry!r}")
        for part in entry[:2]:
            if isinstance(part, bool) or not isinstance(part, (int, float)):
                raise GraphInputError(
                    f"edge {i}: endpoint {part!r} is not a number")
        if len(entry) == 3 and (isinstance(entry[2], bool)
                                or not isinstance(entry[2], (int, float))):
            raise GraphInputError(
                f"edge {i}: weight {entry[2]!r} is not a number")
        edges.append(tuple(entry))
    return build_graph(num_nodes, edges)


def graph_from_edgelist(text: str) -> Graph:
    """Parse whitespace-separated edge-list text: one ``u v [w]`` per line.

    Blank lines and lines starting with ``#`` are skipped. The node count is
    ``max id + 1``. Errors carry the 1-based line number.
    """
    edges: list[tuple] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphInputError(
                f"line {lineno}: expected 'u v' or 'u v w', got {line!r}")
        try:
            u = int(parts[0])
            v = int(parts[1])
        except ValueError:
            raise GraphInputError(
                f"line {lineno}: endpoints must be integers, got {line!r}") from None
        w = 1.0
        if len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise GraphInputError(
                    f"line {lineno}: weight must be a number, got {parts[2]!r}") from None
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
