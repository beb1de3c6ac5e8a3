"""Independent cross-checks: Monte Carlo walks, graph generators, shortest
paths, automorphism orbits, and the canonical cubic witness graph.

Everything here deliberately avoids the solver stack so it can serve as an
oracle for it. Routines are vectorized where it matters but are intended for
verification-scale graphs unless noted otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import networkx as nx
import numpy as np

from .graph import CrossComponentError, Graph, build_graph


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


def grounded_hitting_times(graph: Graph) -> np.ndarray:
    """All-pairs hitting times hit[u, t] = H(u, t), one dense solve per target.

    For each target t, the Laplacian built here from the edge arrays is
    restricted to t's component minus t and solved against the weighted
    degrees. Entries across components are +inf and the diagonal is 0.
    """
    n = graph.num_nodes
    lap = np.zeros((n, n))
    np.add.at(lap, (graph.edge_u, graph.edge_v), -graph.edge_w)
    np.add.at(lap, (graph.edge_v, graph.edge_u), -graph.edge_w)
    degrees = -lap.sum(axis=1)
    lap[np.diag_indices(n)] = degrees
    hit = np.full((n, n), np.inf)
    np.fill_diagonal(hit, 0.0)
    for t in range(n):
        rest = np.flatnonzero(graph.component_of == graph.component_of[t])
        rest = rest[rest != t]
        hit[rest, t] = np.linalg.solve(lap[np.ix_(rest, rest)], degrees[rest])
    return hit


def build_cycle(n: int) -> Graph:
    """Unit-weight cycle v_0 - v_1 - ... - v_{n-1} - v_0."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def build_path(n: int) -> Graph:
    """Unit-weight path v_0 - v_1 - ... - v_{n-1}."""
    if n < 2:
        raise ValueError("path needs n >= 2")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


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


def counterexample_pair(k: int) -> tuple[Graph, Graph]:
    """Cycle on 4k+1 nodes and the path obtained by deleting its edge
    (v_{2k}, v_{2k+1}), which sits diametrically opposite v_0.

    Around v_0 the two graphs look locally identical out to distance 2k, yet
    every resistance Res(v_0, v_i), i != 0, differs between them.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = 4 * k + 1
    cycle = build_cycle(n)
    kept = [(i, i + 1) for i in range(n - 1) if i != 2 * k] + [(n - 1, 0)]
    broken = build_graph(n, kept)
    return cycle, broken


def cycle_resistance(n: int, i: int) -> float:
    """Closed form Res(v_0, v_i) = i (n - i) / n on the unit n-cycle."""
    return i * (n - i) / n


def broken_cycle_resistance(n: int, i: int) -> float:
    """Closed form Res(v_0, v_i) = min(i, n - i) on the cycle with its edge
    opposite v_0 removed (a path re-indexed so v_0 is the midpoint)."""
    return float(min(i, n - i))


def random_connected_graph(n: int, avg_degree: float,
                           weight_range: tuple[float, float] = (1.0, 1.0),
                           seed: int = 0) -> Graph:
    """Random connected graph: a random spanning tree plus extra edges.

    The tree attaches node i to a uniform earlier node; extra distinct
    non-tree edges are added until the total reaches round(avg_degree * n / 2).
    Weights are uniform in ``weight_range``.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rng = np.random.default_rng(seed)
    parents = np.floor(rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    children = np.arange(1, n, dtype=np.int64)
    tree_keys = set((parents * n + children).tolist())

    target_m = max(n - 1, int(round(avg_degree * n / 2.0)))
    max_m = n * (n - 1) // 2
    target_m = min(target_m, max_m)
    need = target_m - (n - 1)
    chosen: list[int] = []
    seen = set(tree_keys)
    while need > 0:
        batch = max(4 * need, 64)
        a = rng.integers(0, n, size=batch)
        b = rng.integers(0, n, size=batch)
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        keys = (lo * n + hi)[lo < hi]
        for key in keys.tolist():
            if key not in seen:
                seen.add(key)
                chosen.append(key)
                need -= 1
                if need == 0:
                    break

    keys = np.concatenate([np.sort(np.fromiter(tree_keys, np.int64)),
                           np.asarray(chosen, dtype=np.int64)]) \
        if chosen else np.sort(np.fromiter(tree_keys, np.int64))
    us = keys // n
    vs = keys % n
    lo_w, hi_w = weight_range
    if not (0 < lo_w <= hi_w):
        raise ValueError("weight_range must satisfy 0 < low <= high")
    ws = rng.uniform(lo_w, hi_w, size=keys.size) if hi_w > lo_w \
        else np.full(keys.size, lo_w)
    return build_graph(n, np.column_stack([us, vs, ws]))


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
    fixture-sized graphs. Orbit ids are assigned in order of each orbit's
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


#: Edge list of the unique connected 3-regular graph on 8 nodes whose
#: automorphism orbits (sizes 2, 4, 2) carry five distinct edge resistances.
#: Derived by :func:`find_witness_graph`; frozen here for fast access.
WITNESS_EDGES: tuple[tuple[int, int], ...] = (
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 6),
    (4, 7), (5, 6), (5, 7), (6, 7),
)

#: Expected effective resistance per orbit-pair edge class, keyed by sorted
#: orbit-size pair of the endpoints: 2/4/2-orbit labels (o1, o2, o3).
WITNESS_EDGE_RESISTANCES: dict[tuple[str, str], float] = {
    ("o1", "o1"): 2.0 / 3.0,
    ("o1", "o2"): 185.0 / 336.0,
    ("o2", "o2"): 15.0 / 28.0,
    ("o2", "o3"): 209.0 / 336.0,
    ("o3", "o3"): 4.0 / 7.0,
}


def witness_graph() -> Graph:
    """The frozen witness fixture (see :data:`WITNESS_EDGES`)."""
    return build_graph(8, WITNESS_EDGES)


def _cubic_graphs_8() -> list[list[tuple[int, int]]]:
    """All labeled 3-regular graphs on 8 nodes with node 0 adjacent to 1,2,3.

    Backtracking on the smallest unsaturated node; each labeled graph is
    produced exactly once because that node's remaining partners are chosen
    as a single sorted combination.
    """
    adjacency: list[set[int]] = [set() for _ in range(8)]
    for v in (1, 2, 3):
        adjacency[0].add(v)
        adjacency[v].add(0)
    found: list[list[tuple[int, int]]] = []

    def rec() -> None:
        node = next((u for u in range(8) if len(adjacency[u]) < 3), None)
        if node is None:
            found.append(sorted((u, v) for u in range(8)
                                 for v in adjacency[u] if u < v))
            return
        deficit = 3 - len(adjacency[node])
        candidates = [v for v in range(node + 1, 8)
                      if len(adjacency[v]) < 3 and v not in adjacency[node]]
        for combo in itertools.combinations(candidates, deficit):
            for v in combo:
                adjacency[node].add(v)
                adjacency[v].add(node)
            rec()
            for v in combo:
                adjacency[node].remove(v)
                adjacency[v].remove(node)

    rec()
    return found


def _matches_witness_fingerprint(graph: Graph) -> bool:
    """Check orbit sizes (2, 4, 2) and all five edge-class resistances."""
    from .measures import AffinityTable

    orbits = automorphism_orbits(graph)
    sizes = np.bincount(orbits)
    if sorted(sizes.tolist()) != [2, 2, 4]:
        return False
    small = [int(o) for o in np.unique(orbits) if sizes[o] == 2]
    big = [int(o) for o in np.unique(orbits) if sizes[o] == 4][0]

    res = AffinityTable.exact(graph).res
    for first, last in (small, list(reversed(small))):
        names = {first: "o1", big: "o2", last: "o3"}
        seen: dict[tuple[str, str], float] = {}
        ok = True
        for u, v in zip(graph.edge_u, graph.edge_v):
            pair = tuple(sorted((names[int(orbits[u])], names[int(orbits[v])])))
            if pair not in WITNESS_EDGE_RESISTANCES:
                ok = False
                break
            value = res[u, v]
            if abs(value - WITNESS_EDGE_RESISTANCES[pair]) > 1e-12:
                ok = False
                break
            seen[pair] = value
        if ok and set(seen) == set(WITNESS_EDGE_RESISTANCES):
            return True
    return False


def find_witness_graph() -> Graph:
    """Search all connected cubic graphs on 8 nodes for the unique one whose
    orbit structure and edge resistances match the witness fingerprint.

    Raises:
        RuntimeError: if the enumeration or the fingerprint match does not
            come out exactly as expected (5 isomorphism classes, 1 match).
    """
    representatives: list[nx.Graph] = []
    rep_edges: list[list[tuple[int, int]]] = []
    for edges in _cubic_graphs_8():
        candidate = nx.Graph(edges)
        candidate.add_nodes_from(range(8))
        if not nx.is_connected(candidate):
            continue
        if any(nx.is_isomorphic(candidate, seen) for seen in representatives):
            continue
        representatives.append(candidate)
        rep_edges.append(edges)
    if len(representatives) != 5:
        raise RuntimeError(f"expected 5 connected cubic graphs on 8 nodes, "
                           f"enumerated {len(representatives)}")
    matches = [edges for edges in rep_edges
               if _matches_witness_fingerprint(build_graph(8, edges))]
    if len(matches) != 1:
        raise RuntimeError(f"witness fingerprint matched {len(matches)} of 5 "
                           f"cubic graphs, expected exactly 1")
    return build_graph(8, matches[0])
