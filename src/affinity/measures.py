"""Pairwise affinity measures: effective resistance, hitting and commute
times, and their embedding-based counterparts.

Exact hitting times are closed forms in the Laplacian pseudoinverse:
H(u, v) = (L+ d)_u - (L+ d)_v + 2M (L+_vv - L+_uv), so the all-pairs table
costs one cached eigendecomposition plus O(n^2), and one target's column is
one Laplacian solve against d - 2M e_t. Embedding-based ones use
H(u, v) = 2M <r_v - r_u, r_v - p> with the stationary mean p, the same
formula with the embedding's Gram matrix in place of L+. Tetali's resistance
formula is implemented separately as a third route for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import ResistiveEmbedding
from .graph import CrossComponentError, Graph
from .solvers import SolverConfig, dense_pseudoinverse, solve_laplacian


def _check_node(graph: Graph, node: int, name: str) -> int:
    if not 0 <= node < graph.num_nodes:
        raise ValueError(f"{name}={node!r} outside 0..{graph.num_nodes - 1}")
    return int(node)


def _require_same_component(graph: Graph, u: int, v: int) -> None:
    if not graph.same_component(u, v):
        raise CrossComponentError(
            f"nodes {u} and {v} lie in different connected components; "
            f"effective resistance is infinite")


def effective_resistance(graph: Graph, u: int, v: int,
                         config: SolverConfig | None = None) -> float:
    """Exact effective resistance via one Laplacian solve.

    Res(u, v) = (1_u - 1_v)^T L+ (1_u - 1_v).
    """
    u = _check_node(graph, u, "u")
    v = _check_node(graph, v, "v")
    if u == v:
        return 0.0
    _require_same_component(graph, u, v)
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
    u = _check_node(graph, u, "u")
    v = _check_node(graph, v, "v")
    if u == v:
        return 0.0
    _require_same_component(graph, u, v)
    mass = _component_edge_weight(graph, int(graph.component_of[u]))
    return 2.0 * mass * effective_resistance(graph, u, v, config)


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
    rhs[target] -= 2.0 * _component_edge_weight(graph, label)
    y = solve_laplacian(graph, rhs, config)
    out = np.where(on_comp, y - y[target], np.inf)
    out[target] = 0.0
    return out


def _component_edge_weight(graph: Graph, label: int) -> float:
    if graph.num_components <= 1:
        return graph.total_weight
    mask = graph.component_of[graph.edge_u] == label
    return float(graph.edge_w[mask].sum())


def _component_mean(embedding: ResistiveEmbedding, graph: Graph,
                    label: int) -> tuple[np.ndarray, float]:
    """Stationary mean and edge mass restricted to one component."""
    if graph.num_components <= 1:
        return embedding.mean, graph.total_weight
    nodes = graph.component_nodes(label)
    mass = _component_edge_weight(graph, label)
    mean = graph.degrees[nodes] @ embedding.vectors[nodes] / (2.0 * mass)
    return mean, mass


def _hitting_from_embedding(embedding: ResistiveEmbedding, graph: Graph,
                            u: int, v: int) -> float:
    u = _check_node(graph, u, "u")
    v = _check_node(graph, v, "v")
    if embedding.num_nodes != graph.num_nodes:
        raise ValueError("embedding and graph disagree on node count")
    if u == v:
        return 0.0
    _require_same_component(graph, u, v)
    mean, mass = _component_mean(embedding, graph, int(graph.component_of[u]))
    vec_u = embedding.vectors[u]
    vec_v = embedding.vectors[v]
    return 2.0 * mass * float((vec_v - vec_u) @ (vec_v - mean))


def hitting_time_via_embedding(embedding: ResistiveEmbedding, graph: Graph,
                               u: int, v: int) -> float:
    """Exact hitting time read off an exact embedding:
    H(u, v) = 2M <r_v - r_u, r_v - p>."""
    if embedding.kind != "exact":
        raise ValueError("embedding is sketched; use approx_hitting_time, "
                         "which reports the same formula as an estimate")
    return _hitting_from_embedding(embedding, graph, u, v)


def approx_hitting_time(embedding: ResistiveEmbedding, graph: Graph,
                        u: int, v: int) -> float:
    """Hitting-time estimate from a sketched embedding (additive error
    bounded by 3 * epsilon * H_max with high probability)."""
    if embedding.kind != "sketched":
        raise ValueError("embedding is exact; use hitting_time_via_embedding")
    return _hitting_from_embedding(embedding, graph, u, v)


def tetali_hitting_time(graph: Graph, resistance_table: np.ndarray,
                        pi, u: int, v: int) -> float:
    """Tetali's identity: H(u, v) = 1/2 [K(u, v) + sum_i pi_i (K(v, i) - K(u, i))].

    Args:
        graph: the graph (used for component structure and edge mass).
        resistance_table: (n, n) pairwise effective resistances; entries must
            be finite within the component of u and v.
        pi: stationary distribution over all n nodes, either an array or a
            :class:`~affinity.graph.StationaryDistribution` (restricted to
            the component and renormalized on disconnected graphs).
    """
    u = _check_node(graph, u, "u")
    v = _check_node(graph, v, "v")
    res = np.asarray(resistance_table, dtype=np.float64)
    n = graph.num_nodes
    if res.shape != (n, n):
        raise ValueError(f"resistance table must be ({n}, {n}), got {res.shape}")
    pi = np.asarray(getattr(pi, "pi", pi), dtype=np.float64)
    if pi.shape != (n,):
        raise ValueError(f"pi must have shape ({n},), got {pi.shape}")
    if u == v:
        return 0.0
    _require_same_component(graph, u, v)
    label = int(graph.component_of[u])
    nodes = graph.component_nodes(label)
    needed = np.concatenate([res[u, nodes], res[v, nodes]])
    if not np.all(np.isfinite(needed)):
        raise ValueError("resistance table is incomplete on the component "
                         f"containing nodes {u} and {v}")
    mass = _component_edge_weight(graph, label)
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
class RadiusEstimate:
    """Largest finite hitting time, exact or sampled.

    Attributes:
        value: the max (a lower bound when ``exact`` is False).
        exact: True when every target column was computed.
        num_targets: how many target columns went into the max.
    """

    value: float
    exact: bool
    num_targets: int


def hitting_time_radius(graph: Graph, config: SolverConfig | None = None,
                        cap: int = 2048, sample_size: int = 64,
                        seed: int = 0) -> RadiusEstimate:
    """Max hitting time over ordered pairs, exact up to ``cap`` nodes.

    Above the cap, ``sample_size`` target nodes are drawn without replacement
    and the result is the max over the sampled columns, flagged as a sampled
    lower bound.
    """
    config = config or SolverConfig()
    if graph.num_nodes == 0:
        raise ValueError("empty graph has no hitting times")
    if graph.num_nodes <= cap:
        targets = np.arange(graph.num_nodes)
        exact = True
    else:
        rng = np.random.default_rng(seed)
        targets = rng.choice(graph.num_nodes, size=min(sample_size,
                                                       graph.num_nodes),
                             replace=False)
        exact = False
    best = 0.0
    for t in targets:
        column = hitting_time_exact(graph, int(t), config)
        finite = column[np.isfinite(column)]
        if finite.size:
            best = max(best, float(finite.max()))
    return RadiusEstimate(value=best, exact=exact, num_targets=len(targets))


def _hitting_table(graph: Graph, gram: np.ndarray) -> tuple[np.ndarray, float]:
    """(hit, h_max) from an (n, n) Gram matrix G: L+ or embedding products.

    Per component, with a = G d / 2M, hit[u, v] = 2M (G_vv - G_uv - a_v + a_u);
    +inf across components, 0 on the diagonal; h_max is the largest finite
    entry.
    """
    n = graph.num_nodes
    hit = np.full((n, n), np.inf)
    for label in range(graph.num_components):
        nodes = graph.component_nodes(label)
        if nodes.size < 2:
            continue
        mass = _component_edge_weight(graph, label)
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
    def exact(cls, graph: Graph, config: SolverConfig | None = None,
              cap: int = 2048) -> "AffinityTable":
        """Dense exact tables in closed form from the pseudoinverse, with M
        per component: H(u, v) = (L+ d)_u - (L+ d)_v + 2M (L+_vv - L+_uv)
        (Tetali 1991). Cost: one cached eigendecomposition plus O(n^2); no
        linear solve runs, so ``config`` is unused."""
        if graph.num_nodes > cap:
            raise ValueError(f"exact affinity table capped at {cap} nodes, "
                             f"graph has {graph.num_nodes}")
        pinv = dense_pseudoinverse(graph, cap=cap).matrix
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
