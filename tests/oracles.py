"""Oracles that only the tests use: Monte Carlo walks, shortest paths,
``numpy.linalg.pinv`` resistances, grid and disjoint-union builders, and VF2
automorphism orbits through networkx.

They import nothing from the package but :mod:`affinity.graph`, so they stay
independent of the solver stack they check. networkx comes with the ``test``
extra (``pip install .[test]``).
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from affinity.graph import CrossComponentError, Graph, build_graph


@dataclass(frozen=True)
class WalkEstimate:
    """Monte Carlo hitting-time estimate.

    Attributes:
        mean: average steps to first arrival (truncated walks count at
            ``max_steps``).
        stderr: sample standard deviation divided by sqrt(num_walks).
        num_walks: number of simulated walks.
        truncated: how many walks hit the step cap before the target.
        max_steps: the step cap that applied.
    """

    mean: float
    stderr: float
    num_walks: int
    truncated: int
    max_steps: int


def mc_hitting_time(graph: Graph, u: int, v: int, num_walks: int,
                    max_steps: int | None = None, seed: int = 0) -> WalkEstimate:
    """Estimate H(u, v) by simulating weighted random walks in lockstep.

    All walks advance together one step at a time; a walk freezes once it
    reaches ``v``. Walks still running at ``max_steps`` (default 100 * n^2)
    are recorded at the cap and counted in ``truncated``.

    The walk table comes from the canonical edge arrays alone: a node's
    neighbors in edge order, edges where it is edge_u first. ``u`` and ``v``
    must be nodes (else ``ValueError``) of one component.
    """
    n = graph.num_nodes
    for node in (u, v):
        if not 0 <= node < n:
            raise ValueError(f"node {node} out of range")
    if not graph.same_component(u, v):
        raise CrossComponentError(f"nodes {u} and {v} are in different "
                                  f"components; the walk never arrives")
    if num_walks < 1:
        raise ValueError("num_walks must be >= 1")
    if max_steps is None:
        max_steps = 100 * n * n
    rng = np.random.default_rng(seed)

    src = np.concatenate([graph.edge_u, graph.edge_v])
    order = np.argsort(src, kind="stable")
    counts = np.bincount(src, minlength=n)
    row = src[order]
    col = np.arange(order.size) - (np.cumsum(counts) - counts)[row]
    nbrs = np.zeros((n, int(counts.max())), dtype=np.int64)
    nbrs[row, col] = np.concatenate([graph.edge_v, graph.edge_u])[order]
    weights = np.zeros(nbrs.shape)
    weights[row, col] = np.concatenate([graph.edge_w, graph.edge_w])[order]
    # per-node cumulative weights; the zero padding becomes +inf, never drawn
    cum = np.where(weights > 0, np.cumsum(weights, axis=1), np.inf)

    steps = np.zeros(num_walks, dtype=np.int64)
    position = np.full(num_walks, u, dtype=np.int64)
    active = position != v
    t = 0
    while t < max_steps and active.any():
        walking = np.flatnonzero(active)
        here = position[walking]
        draw = rng.random(walking.size) * graph.degrees[here]
        slot = (cum[here] <= draw[:, None]).sum(axis=1)
        position[walking] = nbrs[here, slot]
        t += 1
        arrived = position[walking] == v
        steps[walking[arrived]] = t
        active[walking[arrived]] = False
    truncated = int(active.sum())
    steps[active] = max_steps
    mean = float(steps.mean())
    stderr = float(steps.std(ddof=1) / np.sqrt(num_walks)) if num_walks > 1 \
        else 0.0
    return WalkEstimate(mean=mean, stderr=stderr, num_walks=num_walks,
                        truncated=truncated, max_steps=max_steps)


def pinv_resistances(graph: Graph) -> np.ndarray:
    """All-pairs effective resistances R = L+_uu + L+_vv - 2 L+_uv, with L+
    from ``numpy.linalg.pinv`` (an SVD) of a dense Laplacian built here from
    the edge arrays; +inf across components, 0 on the diagonal.

    Singular values under 1e-10 times the largest count as zero, far below
    the spectrum of any test graph and far above the SVD's own noise.
    """
    n = graph.num_nodes
    lap = np.zeros((n, n))
    np.add.at(lap, (graph.edge_u, graph.edge_v), -graph.edge_w)
    np.add.at(lap, (graph.edge_v, graph.edge_u), -graph.edge_w)
    lap[np.diag_indices(n)] = -lap.sum(axis=1)
    pinv = np.linalg.pinv(lap, rcond=1e-10)
    diag = np.diag(pinv)
    res = diag[:, None] + diag[None, :] - 2.0 * pinv
    res[graph.component_of[:, None] != graph.component_of[None, :]] = np.inf
    np.fill_diagonal(res, 0.0)
    return res


def build_grid(rows: int, cols: int, weights=None) -> Graph:
    """rows x cols grid, node r * cols + c; edges run along the rows first,
    then down the columns, with weights in that order (default 1)."""
    idx = np.arange(rows * cols).reshape(rows, cols)
    u = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    v = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    w = np.ones(u.size) if weights is None else np.asarray(weights, float)
    return build_graph(rows * cols, np.column_stack([u, v, w]))


def disjoint_union(a: Graph, b: Graph) -> tuple[Graph, int]:
    """Stack two graphs side by side; returns (union, offset of b's nodes)."""
    offset = a.num_nodes
    edges_u = np.concatenate([a.edge_u, b.edge_u + offset])
    edges_v = np.concatenate([a.edge_v, b.edge_v + offset])
    edges_w = np.concatenate([a.edge_w, b.edge_w])
    union = build_graph(a.num_nodes + b.num_nodes,
                        np.column_stack([edges_u, edges_v, edges_w]))
    return union, offset


def spd_bellman_ford(graph: Graph, source: int) -> np.ndarray:
    """Weighted shortest-path distances by synchronous edge relaxation.

    Every round relaxes all edges in both directions simultaneously, which is
    the message-passing form of Bellman-Ford; unreachable nodes stay at +inf.
    """
    if not 0 <= source < graph.num_nodes:
        raise ValueError(f"source {source} out of range")
    dist = np.full(graph.num_nodes, np.inf)
    dist[source] = 0.0
    for _ in range(graph.num_nodes):
        relaxed = dist.copy()
        np.minimum.at(relaxed, graph.edge_u, dist[graph.edge_v] + graph.edge_w)
        np.minimum.at(relaxed, graph.edge_v, dist[graph.edge_u] + graph.edge_w)
        if np.array_equal(relaxed, dist):
            break
        dist = relaxed
    return dist


def _to_networkx(graph: Graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_nodes))
    g.add_edges_from(zip(graph.edge_u.tolist(), graph.edge_v.tolist()))
    return g


def automorphism_orbits(graph: Graph) -> np.ndarray:
    """Node orbit labels under the full automorphism group (unweighted).

    Enumerates all self-isomorphisms via VF2, so this is only meant for
    fixture-sized graphs; unlike :func:`affinity.oracle.automorphism_orbits`
    it has no 8-node limit. Orbit ids are assigned in order of each orbit's
    smallest member.
    """
    g = _to_networkx(graph)
    parent = list(range(graph.num_nodes))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    matcher = nx.algorithms.isomorphism.GraphMatcher(g, g)
    for mapping in matcher.isomorphisms_iter():
        for a, b in mapping.items():
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    roots = [find(a) for a in range(graph.num_nodes)]
    labels: dict[int, int] = {}
    out = np.empty(graph.num_nodes, dtype=np.int64)
    for node, root in enumerate(roots):
        if root not in labels:
            labels[root] = len(labels)
        out[node] = labels[root]
    return out
