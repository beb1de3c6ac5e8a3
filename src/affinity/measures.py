"""Pairwise affinity measures: effective resistance, hitting and commute
times, and their embedding-based counterparts.

Exact hitting times are closed forms in the Laplacian pseudoinverse:
H(u, v) = (L+ d)_u - (L+ d)_v + 2M (L+_vv - L+_uv), so the all-pairs table
costs one cached eigendecomposition plus O(n^2), and one target's column is
one Laplacian solve against d - 2M e_t. Embedding-based ones use
H(u, v) = 2M <r_v - r_u, r_v - p> with the stationary mean p. The identity
lives in two helpers, both with M and p taken per connected component:
:func:`_pair_hitting_times` evaluates the vector form for arrays of pairs
(single queries and every edge of a feature set), and :func:`_hitting_table`
evaluates the Gram form for all pairs, with L+ or the embedding's Gram
matrix. Tetali's resistance formula is implemented separately as a third
route for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import ResistiveEmbedding
from .graph import CrossComponentError, Graph
from .solvers import (SolverConfig, _component_sums, dense_pseudoinverse,
                      solve_laplacian)


def _check_node(graph: Graph, node: int, name: str) -> int:
    if not isinstance(node, (int, np.integer)):
        raise ValueError(f"{name}={node!r} is not an integer node id")
    if not 0 <= node < graph.num_nodes:
        raise ValueError(f"{name}={node!r} outside 0..{graph.num_nodes - 1}")
    return int(node)


def _check_pair(graph: Graph, u: int, v: int) -> tuple[int, int]:
    """Range-check u and v; distinct nodes must share a component."""
    u = _check_node(graph, u, "u")
    v = _check_node(graph, v, "v")
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
    n = embedding.num_nodes
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"nodes ({u}, {v}) outside 0..{n - 1}")
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
    target = _check_node(graph, target, "target")
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
    if graph.num_components <= 1:
        return np.array([graph.total_weight])
    # bincount of an empty array is int64 whatever the weights
    return np.bincount(graph.component_of[graph.edge_u], weights=graph.edge_w,
                       minlength=graph.num_components).astype(np.float64)


def _pair_hitting_times(embedding: ResistiveEmbedding, graph: Graph,
                        sources: np.ndarray,
                        targets: np.ndarray) -> np.ndarray:
    """H(u, v) = 2M <r_v - r_u, r_v - p> for arrays of same-component pairs
    (u, v) = (sources[i], targets[i]), with the edge mass M and stationary
    mean p of the pair's component."""
    vecs = embedding.vectors
    if graph.num_components <= 1:
        mass, mean = graph.total_weight, embedding.mean
    else:
        masses = _component_masses(graph)
        sums = _component_sums(graph, vecs, graph.degrees)
        # edgeless components have no pairs; leave their mean at zero
        means = np.divide(sums, 2.0 * masses[:, None],
                          out=np.zeros_like(sums), where=masses[:, None] > 0)
        comp = graph.component_of[targets]
        mass, mean = masses[comp], means[comp]
    ends = vecs[targets]
    diff = ends - vecs[sources]
    ends -= mean
    return 2.0 * mass * np.einsum("ij,ij->i", diff, ends)


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
    if embedding.num_nodes != graph.num_nodes:
        raise ValueError("embedding and graph disagree on node count")
    if u == v:
        return 0.0
    return float(_pair_hitting_times(embedding, graph, np.array([u]),
                                     np.array([v]))[0])


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


def _hitting_table(graph: Graph, gram: np.ndarray) -> tuple[np.ndarray, float]:
    """(hit, h_max) from an (n, n) Gram matrix G: L+ or embedding products.

    Per component, with a = G d / 2M, hit[u, v] = 2M (G_vv - G_uv - a_v + a_u);
    +inf across components, 0 on the diagonal; h_max is the largest finite
    entry.
    """
    n = graph.num_nodes
    hit = np.full((n, n), np.inf)
    masses = _component_masses(graph)
    for label in range(graph.num_components):
        nodes = graph.component_nodes(label)
        if nodes.size < 2:
            continue
        mass = masses[label]
        block = np.ix_(nodes, nodes)
        g = gram[block]
        a = g @ graph.degrees[nodes] / (2.0 * mass)
        hit[block] = 2.0 * mass * (np.diag(g)[None, :] - g - a[None, :]
                                   + a[:, None])
    np.fill_diagonal(hit, 0.0)
    finite = hit[np.isfinite(hit)]
    return hit, float(finite.max()) if finite.size else 0.0


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
    def exact(cls, graph: Graph) -> "AffinityTable":
        """Dense exact tables in closed form from the pseudoinverse, with M
        per component: H(u, v) = (L+ d)_u - (L+ d)_v + 2M (L+_vv - L+_uv)
        (Tetali 1991). Cost: one cached eigendecomposition plus O(n^2); no
        linear solve runs. The graph must be within the pseudoinverse's node
        cap."""
        pinv = dense_pseudoinverse(graph)
        diag = np.diag(pinv)
        res = diag[:, None] + diag[None, :] - 2.0 * pinv
        np.fill_diagonal(res, 0.0)
        cross = graph.component_of[:, None] != graph.component_of[None, :]
        res[cross] = np.inf
        hit, h_max = _hitting_table(graph, pinv)
        return cls(res=res, hit=hit, h_max=h_max,
                   total_weight=graph.total_weight, kind="exact")

    @classmethod
    def approximate(cls, embedding: ResistiveEmbedding,
                    graph: Graph) -> "AffinityTable":
        """All-pairs hitting estimates from a sketched embedding via Gram
        matrix algebra; runs per connected component."""
        if embedding.num_nodes != graph.num_nodes:
            raise ValueError("embedding and graph disagree on node count")
        vecs = embedding.vectors
        hit, h_max = _hitting_table(graph, vecs @ vecs.T)
        return cls(res=None, hit=hit, h_max=h_max,
                   total_weight=graph.total_weight, kind="approximate",
                   epsilon=embedding.epsilon)
