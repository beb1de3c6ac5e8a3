"""Pairwise affinity measures: effective resistance, hitting and commute
times, and their embedding-based counterparts.

Exact hitting times are closed forms in the Laplacian pseudoinverse:
H(u, v) = (L+ d)_u - (L+ d)_v + 2M (L+_vv - L+_uv), so the all-pairs table
costs one cached eigendecomposition plus O(n^2), and one target's column is
one Laplacian solve against d - 2M e_t. Embedding-based ones use
H(u, v) = 2M <r_v - r_u, r_v - p> = 2M (G_vv - G_uv - a_v + a_u), with G
the Gram matrix and a_u = <r_u, p>. Every graph takes one per-component path:
M and p of the pair's component come from :func:`_component_masses` and
``_component_sums``; :func:`_pair_hitting_times` evaluates arrays of pairs,
:func:`_hitting_table` all pairs from L+ or V V^T. Tetali's resistance
formula is a third, independent route for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import ResistiveEmbedding
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


def _pair_hitting_times(embedding: ResistiveEmbedding, graph: Graph,
                        sources: np.ndarray,
                        targets: np.ndarray) -> np.ndarray:
    """(len, 2) hitting times [H(u, v), H(v, u)] of the same-component pairs
    (u, v) = (sources[i], targets[i]): H(u, v) = 2M (<r_v - r_u, r_v> - a_v
    + a_u), with a_u = <r_u, p> computed once per node, so that only scalars
    are gathered per pair."""
    vecs = embedding.vectors
    comp = graph.component_of
    two_mass = 2.0 * _component_masses(graph)[comp]
    sums = _component_sums(graph, vecs, graph.degrees)
    # an isolated node is in no pair; leave its stationary term at zero
    a = np.divide(np.einsum("ij,ij->i", vecs, sums[comp]), two_mass,
                  out=np.zeros(graph.num_nodes), where=two_mass > 0)
    ends, starts = vecs[targets], vecs[sources]
    diff = ends - starts
    gap = a[sources] - a[targets]
    return two_mass[targets][:, None] * np.column_stack(
        [np.einsum("ij,ij->i", diff, ends) + gap,
         -np.einsum("ij,ij->i", diff, starts) - gap])


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
                                     np.array([v]))[0, 0])


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

    hit[u, v] = 2M (G_vv - G_uv - a_v + a_u), with M the edge mass of the
    pair's component and a_u = (G d)_u / 2M summed over u's component only,
    since a sketch's Gram has entries across components; +inf across
    components, 0 on the diagonal; h_max is the largest finite entry.
    """
    n = graph.num_nodes
    comp = graph.component_of
    two_mass = 2.0 * _component_masses(graph)[comp]
    # row c(u), column u of the per-component sums is (G d)_u on u's component
    own = _component_sums(graph, gram, graph.degrees)[comp, np.arange(n)]
    a = np.divide(own, two_mass, out=np.zeros(n), where=two_mass > 0)
    hit = two_mass[:, None] * (np.diag(gram)[None, :] - gram - a[None, :]
                               + a[:, None])
    hit[comp[:, None] != comp[None, :]] = np.inf
    np.fill_diagonal(hit, 0.0)
    # the zero diagonal keeps the maximum of the finite entries at least 0
    return hit, float(np.max(hit, where=np.isfinite(hit), initial=0.0))


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
        hit, h_max = _hitting_table(graph, pinv)
        diag = np.diag(pinv)
        # both tables are infinite exactly across components
        res = np.where(np.isinf(hit), np.inf,
                       diag[:, None] + diag[None, :] - 2.0 * pinv)
        np.fill_diagonal(res, 0.0)
        return cls(res=res, hit=hit, h_max=h_max,
                   total_weight=graph.total_weight, kind="exact")

    @classmethod
    def approximate(cls, embedding: ResistiveEmbedding,
                    graph: Graph) -> "AffinityTable":
        """All-pairs hitting times from an embedding's Gram matrix V V^T:
        estimates for a sketch, exact for :func:`exact_embedding`."""
        if embedding.num_nodes != graph.num_nodes:
            raise ValueError("embedding and graph disagree on node count")
        vecs = embedding.vectors
        hit, h_max = _hitting_table(graph, vecs @ vecs.T)
        return cls(res=None, hit=hit, h_max=h_max,
                   total_weight=graph.total_weight, kind="approximate",
                   epsilon=embedding.epsilon)
