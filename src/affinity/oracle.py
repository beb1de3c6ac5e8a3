"""Graph generators, closed forms, the dense grounded hitting-time oracle,
automorphism orbits of small graphs, and the canonical cubic witness graph.

The generators, closed forms and :func:`grounded_hitting_times` avoid the
solver stack, so they can serve as oracles for it; the witness fingerprint
reads :meth:`AffinityTable.exact`. Routines are vectorized where it matters
but are intended for verification-scale graphs unless noted otherwise.
"""

from __future__ import annotations

import itertools

import numpy as np

from .graph import Graph, build_graph


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


def _permutations(n: int) -> np.ndarray:
    """All n! orderings of the nodes 0..n-1, one per row, the identity
    first: node k is inserted at every position of the orderings of 0..k-1,
    last position first."""
    perms = np.zeros((1, 0), dtype=np.int64)
    for k in range(n):
        perms = np.concatenate([np.insert(perms, j, k, axis=1)
                                for j in range(k, -1, -1)])
    return perms


def automorphism_orbits(graph: Graph) -> np.ndarray:
    """Node orbit labels under the full automorphism group (unweighted).

    Tries all n! relabellings, so graphs above 8 nodes are refused with
    ``ValueError``. A relabelling p is an automorphism when it maps every
    edge onto an edge (``A[p][:, p] == A``); node i's orbit is its set of
    images p[i]. Orbit ids are assigned in order of each orbit's smallest
    member.
    """
    n = graph.num_nodes
    if n > 8:
        raise ValueError(f"automorphism_orbits tries all n! relabellings and "
                         f"takes at most 8 nodes, got {n}")
    adjacency = np.zeros((n, n), dtype=bool)
    adjacency[graph.edge_u, graph.edge_v] = True
    adjacency[graph.edge_v, graph.edge_u] = True
    perms = _permutations(n)
    kept = adjacency[perms[:, graph.edge_u], perms[:, graph.edge_v]].all(axis=1)
    return np.unique(perms[kept].min(axis=0), return_inverse=True)[1]


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


def _adjacency_masks(perms: np.ndarray,
                     edges: list[tuple[int, int]]) -> np.ndarray:
    """The 64-bit adjacency mask (bit 8a + b set for every edge direction
    a -> b) of an 8-node graph under each relabelling in ``perms``."""
    u, v = np.array(edges).T
    a, b = perms[:, u], perms[:, v]
    bits = np.concatenate([8 * a + b, 8 * b + a], axis=1).astype(np.uint64)
    return np.bitwise_or.reduce(np.left_shift(np.uint64(1), bits), axis=1)


def find_witness_graph() -> Graph:
    """Search all connected cubic graphs on 8 nodes for the unique one whose
    orbit structure and edge resistances match the witness fingerprint.

    Isomorphism is tested exactly: each new class adds the adjacency masks
    of all 40,320 relabellings of its first member to the known set.

    Raises:
        RuntimeError: if the enumeration or the fingerprint match does not
            come out exactly as expected (5 isomorphism classes, 1 match).
    """
    perms = _permutations(8)
    known: set[int] = set()
    rep_edges: list[list[tuple[int, int]]] = []
    for edges in _cubic_graphs_8():
        # perms[0] is the identity, so this is the candidate's own mask
        if int(_adjacency_masks(perms[:1], edges)[0]) in known:
            continue
        if build_graph(8, edges).num_components != 1:
            continue
        known.update(_adjacency_masks(perms, edges).tolist())
        rep_edges.append(edges)
    if len(rep_edges) != 5:
        raise RuntimeError(f"expected 5 connected cubic graphs on 8 nodes, "
                           f"enumerated {len(rep_edges)}")
    matches = [edges for edges in rep_edges
               if _matches_witness_fingerprint(build_graph(8, edges))]
    if len(matches) != 1:
        raise RuntimeError(f"witness fingerprint matched {len(matches)} of 5 "
                           f"cubic graphs, expected exactly 1")
    return build_graph(8, matches[0])
