"""Pairwise affinity measures: effective resistance, hitting and commute
times, and their embedding-based counterparts.

The tables, the edge features and every embedding read evaluate one closed
form on a Gram matrix G, :func:`_closed_form`: G = L+ on the exact paths,
G = V V^T for an embedding V, whose rows it reads a block of pairs at a
time, so that no (pairs, dim) temporary exists. A single exact resistance
is one Laplacian solve, one target's exact hitting-time column one solve
against d - 2M e_t, and Tetali's resistance formula is an independent route
for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import ResistiveEmbedding, _blocks
from .graph import CrossComponentError, Graph, _is_int
from .solvers import (SolverConfig, _component_sums, dense_pseudoinverse,
                      solve_laplacian)


def _check_node(num_nodes: int, node: int, name: str) -> int:
    if not _is_int(node):
        raise ValueError(f"{name}={node!r} is not an integer node id")
    if not 0 <= node < num_nodes:
        raise ValueError(f"{name}={node!r} outside 0..{num_nodes - 1}")
    return int(node)


def _check_pair(graph: Graph, u: int, v: int) -> tuple[int, int]:
    """Range-check u and v; distinct nodes must share a component."""
    u = _check_node(graph.num_nodes, u, "u")
    v = _check_node(graph.num_nodes, v, "v")
    if u != v and not graph.same_component(u, v):
        raise CrossComponentError(
            f"nodes {u} and {v} lie in different connected components; "
            f"effective resistance is infinite")
    return u, v


def effective_resistance(graph: Graph, u: int, v: int,
                         config: SolverConfig | None = None) -> float:
    """Exact effective resistance via one Laplacian solve.

    Res(u, v) = (1_u - 1_v)^T L+ (1_u - 1_v).
    """
    u, v = _check_pair(graph, u, v)
    if u == v:
        return 0.0
    b = np.zeros(graph.num_nodes)
    b[u] = 1.0
    b[v] = -1.0
    x = solve_laplacian(graph, b, config)
    return float(x[u] - x[v])


def effective_resistance_from_embedding(embedding: ResistiveEmbedding,
                                        u: int, v: int) -> float:
    """Squared embedding distance ||r_u - r_v||^2."""
    u = _check_node(embedding.num_nodes, u, "u")
    v = _check_node(embedding.num_nodes, v, "v")
    diff = embedding.vectors[u] - embedding.vectors[v]
    return float(diff @ diff)


def commute_time(graph: Graph, u: int, v: int,
                 config: SolverConfig | None = None) -> float:
    """K(u, v) = 2M * Res(u, v) on a connected graph (component-local M
    otherwise)."""
    res = effective_resistance(graph, u, v, config)
    mass = float(_component_masses(graph)[graph.component_of[int(u)]])
    return 2.0 * mass * res


def hitting_time_exact(graph: Graph, target: int,
                       config: SolverConfig | None = None) -> np.ndarray:
    """Expected steps to first reach ``target`` from every node.

    One Laplacian solve: on the target's component the hitting-time column h
    satisfies L h = d - 2M e_t (M the component's edge mass), so with y the
    solution for that right-hand side (zero elsewhere) h = y - y_t. Entries
    outside the target's component are +inf; the target's own entry is 0.
    """
    target = _check_node(graph.num_nodes, target, "target")
    label = int(graph.component_of[target])
    on_comp = graph.component_of == label
    rhs = np.where(on_comp, graph.degrees, 0.0)
    rhs[target] -= 2.0 * _component_masses(graph)[label]
    y = solve_laplacian(graph, rhs, config)
    out = np.where(on_comp, y - y[target], np.inf)
    out[target] = 0.0
    return out


def _component_masses(graph: Graph) -> np.ndarray:
    """Edge mass M of every connected component, indexed by label."""
    # bincount of an empty array is int64 whatever the weights
    return np.bincount(graph.component_of[graph.edge_u], weights=graph.edge_w,
                       minlength=graph.num_components).astype(np.float64)


def _closed_form(graph: Graph, gram, u: np.ndarray, v: np.ndarray,
                 diff_out: np.ndarray | None = None) -> tuple:
    """(Res(u, v), H(u, v), H(v, u)) of the pairs of the index arrays u and
    v, broadcast together, from a Gram matrix G (Tetali 1991):
    Res = G_uu + G_vv - 2 G_uv and H(u, v) = 2M (G_vv - G_uv - a_v + a_u),
    with M the edge mass of the pair's component and a_x = (G d)_x / 2M
    summed over x's component only, since a sketch's Gram has entries across
    components; +inf across components, 0 where u == v.

    ``gram`` is an (n, n) array, L+ or V V^T, or a ResistiveEmbedding read
    through the row differences r_u - r_v, so that a long path's large G_vv
    and G_uv never cancel. An embedding takes 1-D u and v, and its rows are
    read in blocks of :data:`~affinity.embeddings._BLOCK_ENTRIES` entries, so
    no (pairs, dim) temporary is made; ``diff_out``, a (pairs, dim) array,
    receives the rows r_u - r_v when given.
    """
    n = graph.num_nodes
    embedding = isinstance(gram, ResistiveEmbedding)
    if (gram.num_nodes if embedding else len(gram)) != n:
        raise ValueError("embedding and graph disagree on node count")
    comp = graph.component_of
    two_mass = 2.0 * _component_masses(graph)[comp]
    if embedding:
        vecs = gram.vectors
        sums = _component_sums(graph, vecs, graph.degrees)
        own = np.empty(n)
        for block in _blocks(n, gram.dim):
            own[block] = np.einsum("ij,ij->i", vecs[block], sums[comp[block]])
        res, to_v, to_u = (np.empty(len(u)) for _ in range(3))
        blocks = _blocks(len(u), gram.dim)
        # r_u, r_v and r_u - r_v of one block, reused from block to block;
        # take's "raise" mode would gather into a buffer first, "wrap" does not
        buffers = np.empty((3, blocks[0].stop if blocks else 0, gram.dim))
        for block in blocks:
            rows_u, rows_v, diff = buffers[:, :block.stop - block.start]
            np.take(vecs, u[block], axis=0, out=rows_u, mode="wrap")
            np.take(vecs, v[block], axis=0, out=rows_v, mode="wrap")
            if diff_out is not None:
                diff = diff_out[block]
            np.subtract(rows_u, rows_v, out=diff)
            res[block] = np.einsum("ij,ij->i", diff, diff)
            to_v[block] = -np.einsum("ij,ij->i", diff, rows_v)
            to_u[block] = np.einsum("ij,ij->i", diff, rows_u)
    else:
        diag = np.diag(gram)
        g_uv = gram[u, v]
        res = (diag[u] + diag[v]) - 2.0 * g_uv
        to_v = diag[v] - g_uv
        to_u = diag[u] - g_uv
        # (G d)_x on x's component: row c(x), column x of the component sums
        own = _component_sums(graph, gram, graph.degrees)[comp, np.arange(n)]
    # an isolated node only pairs with itself; leave its term at zero
    a = np.divide(own, two_mass, out=np.zeros(n), where=two_mass > 0)
    out = (res, two_mass[u] * ((to_v - a[v]) + a[u]),
           two_mass[v] * ((to_u - a[u]) + a[v]))
    cross = comp[u] != comp[v]
    for arr in out:
        arr[cross] = np.inf
        arr[u == v] = 0.0
    return out


def hitting_time_via_embedding(embedding: ResistiveEmbedding, graph: Graph,
                               u: int, v: int) -> float:
    """Hitting time read off a resistive embedding,
    H(u, v) = 2M <r_v - r_u, r_v - p>, with M and p taken on the pair's
    component.

    Exact for an exact embedding. For a sketched embedding it is an estimate
    whose additive error is at most 3 * epsilon * H_max with high
    probability.
    """
    u, v = _check_pair(graph, u, v)
    return float(_closed_form(graph, embedding, np.array([u]),
                              np.array([v]))[1][0])


def tetali_hitting_time(graph: Graph, resistance_table: np.ndarray,
                        pi: np.ndarray, u: int, v: int) -> float:
    """Tetali's identity: H(u, v) = 1/2 [K(u, v) + sum_i pi_i (K(v, i) - K(u, i))].

    Args:
        graph: the graph (used for component structure and edge mass).
        resistance_table: (n, n) pairwise effective resistances; entries must
            be finite within the component of u and v.
        pi: (n,) stationary distribution over all nodes (restricted to the
            component and renormalized on disconnected graphs).
    """
    u, v = _check_pair(graph, u, v)
    res = np.asarray(resistance_table, dtype=np.float64)
    n = graph.num_nodes
    if res.shape != (n, n):
        raise ValueError(f"resistance table must be ({n}, {n}), got {res.shape}")
    pi = np.asarray(pi, dtype=np.float64)
    if pi.shape != (n,):
        raise ValueError(f"pi must have shape ({n},), got {pi.shape}")
    if u == v:
        return 0.0
    label = int(graph.component_of[u])
    nodes = graph.component_nodes(label)
    needed = np.concatenate([res[u, nodes], res[v, nodes]])
    if not np.all(np.isfinite(needed)):
        raise ValueError("resistance table is incomplete on the component "
                         f"containing nodes {u} and {v}")
    mass = float(_component_masses(graph)[label])
    pi_local = pi[nodes]
    total = float(pi_local.sum())
    if total <= 0.0:
        raise ValueError("pi carries no mass on the component containing "
                         f"nodes {u} and {v}")
    pi_local = pi_local / total
    commute = 2.0 * mass  # K(x, y) = commute * Res(x, y)
    correction = pi_local @ (res[v, nodes] - res[u, nodes])
    return 0.5 * commute * (float(res[u, v]) + float(correction))


@dataclass(frozen=True)
class AffinityTable:
    """All-pairs affinity tables.

    Attributes:
        res: (n, n) effective resistances (None on the approximate path);
            +inf across components.
        hit: (n, n) hitting times, hit[u, v] = H(u, v); +inf across components.
        h_max: largest finite hitting time in ``hit``.
        total_weight: sum of edge weights M.
        kind: "exact" or "approximate".
        epsilon: sketch distortion when approximate.
    """

    res: np.ndarray | None
    hit: np.ndarray
    h_max: float
    total_weight: float
    kind: str
    epsilon: float | None = None

    @classmethod
    def _of_gram(cls, graph: Graph, gram: np.ndarray, kind: str,
                 epsilon: float | None = None) -> "AffinityTable":
        nodes = np.arange(graph.num_nodes)
        res, hit, _ = _closed_form(graph, gram, nodes[:, None], nodes[None, :])
        # the zero diagonal keeps the maximum of the finite entries at least 0
        h_max = float(np.max(hit, where=np.isfinite(hit), initial=0.0))
        return cls(res=res if kind == "exact" else None, hit=hit, h_max=h_max,
                   total_weight=graph.total_weight, kind=kind, epsilon=epsilon)

    @classmethod
    def exact(cls, graph: Graph) -> "AffinityTable":
        """Dense exact tables in closed form from the pseudoinverse. Cost: one
        cached inverse of the grounded Laplacian plus O(n^2); no linear solve
        runs. The graph must be within the pseudoinverse's node cap."""
        return cls._of_gram(graph, dense_pseudoinverse(graph), "exact")

    @classmethod
    def approximate(cls, embedding: ResistiveEmbedding,
                    graph: Graph) -> "AffinityTable":
        """All-pairs hitting times from an embedding's Gram matrix V V^T:
        estimates for a sketch, exact for :func:`exact_embedding`."""
        vecs = embedding.vectors
        return cls._of_gram(graph, vecs @ vecs.T, "approximate",
                            embedding.epsilon)
