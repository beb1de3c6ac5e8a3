"""Graph generators, closed forms, the dense grounded hitting-time oracle,
and the frozen cubic witness graph with its orbits and edge resistances.

The generators, closed forms and :func:`grounded_hitting_times` avoid the
solver stack, so they can serve as oracles for it. The witness is frozen
here; the cubic-graph search that derives it is a test oracle
(``tests/oracles.py``). Routines are vectorized where it matters but are
intended for verification-scale graphs unless noted otherwise.
"""

from __future__ import annotations

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


#: Edge list of the unique connected 3-regular graph on 8 nodes whose
#: automorphism orbits (sizes 2, 4, 2) carry five distinct edge resistances,
#: as the cubic-graph search of the test suite finds it.
WITNESS_EDGES: tuple[tuple[int, int], ...] = (
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 6),
    (4, 7), (5, 6), (5, 7), (6, 7),
)

#: Automorphism orbit of each witness node: o2 is the orbit of size 4, o1
#: and o3 the two of size 2, o1 the one whose internal edge carries 2/3.
WITNESS_ORBITS: tuple[str, ...] = ("o2", "o2", "o1", "o3", "o3", "o1",
                                   "o2", "o2")

#: Effective resistance of each witness edge class, keyed by the sorted
#: :data:`WITNESS_ORBITS` names of its endpoints.
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
