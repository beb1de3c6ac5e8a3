"""Color refinement (1-WL) with optional edge colors, plus the quantization
step that turns real-valued affinity measures into discrete edge colors.

Signatures are interned by sorting, never hashed, and class ids are assigned
in first-seen node order, so colorings are deterministic across runs and
directly comparable between graphs refined together (e.g. on a disjoint
union).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph

#: Gap-clustering tolerance used when quantizing real-valued edge measures.
QUANTIZE_TOL = 1e-9


@dataclass(frozen=True)
class Coloring:
    """Result of color refinement.

    Attributes:
        node_colors: final color id per node (dense ids from 0).
        history: colors after each round; history[0] is the canonicalized
            initial coloring.
        rounds_to_stabilize: number of rounds that changed the partition, or
            None if the round cap was hit while still refining.
    """

    node_colors: np.ndarray
    history: list = field(repr=False)
    rounds_to_stabilize: int | None

    @property
    def num_classes(self) -> int:
        return int(self.node_colors.max()) + 1 if self.node_colors.size else 0

    def class_sizes(self) -> list[int]:
        """Class sizes in descending order."""
        return sorted(np.bincount(self.node_colors).tolist(), reverse=True)

    def colors_after(self, rounds: int) -> np.ndarray:
        """Colors after the given number of rounds (clamped to stability)."""
        return self.history[min(rounds, len(self.history) - 1)]


def _canonical_ids(values) -> np.ndarray:
    """Densify arbitrary hashable labels to ints in first-seen order."""
    mapping: dict = {}
    out = np.empty(len(values), dtype=np.int64)
    for i, val in enumerate(values):
        if val not in mapping:
            mapping[val] = len(mapping)
        out[i] = mapping[val]
    return out


def wl_refine(graph: Graph, initial_node_colors=None, edge_colors=None,
              max_rounds: int | None = None) -> Coloring:
    """Iterated color refinement.

    Each round replaces a node's color with the pair (old color, sorted
    multiset of (neighbor color, incident edge color)). Edge colors may be
    omitted (all edges alike), a flat (m,) array (symmetric), or an (m, 2)
    array giving a direction-dependent color: column 0 is seen from edge_u's
    side, column 1 from edge_v's side.

    Refinement stops when a round leaves the partition unchanged or after
    ``max_rounds`` rounds, whichever comes first.
    """
    n = graph.num_nodes
    m = graph.num_edges
    if initial_node_colors is None:
        colors = np.zeros(n, dtype=np.int64)
    else:
        initial_node_colors = np.asarray(initial_node_colors)
        if initial_node_colors.shape != (n,):
            raise ValueError(f"initial colors must have shape ({n},)")
        colors = _canonical_ids(initial_node_colors.tolist())

    if edge_colors is None:
        ec = np.zeros((m, 2), dtype=np.int64)
    else:
        ec = np.asarray(edge_colors)
        if ec.shape == (m,):
            ec = np.column_stack([ec, ec])
        elif ec.shape != (m, 2):
            raise ValueError(f"edge colors must have shape ({m},) or ({m}, 2)")
        ec = ec.astype(np.int64)

    limit = max_rounds if max_rounds is not None else max(n, 1)
    history = [colors]
    rounds_to_stabilize: int | None = None
    # edge color as seen from each incidence's own side
    side = np.where(graph.nbr_forward, 0, 1)
    incident_color = ec[graph.nbr_edge_ids, side] if m else \
        np.zeros(0, dtype=np.int64)

    for round_no in range(1, limit + 1):
        signatures = []
        for u in range(n):
            lo, hi = graph.nbr_indptr[u], graph.nbr_indptr[u + 1]
            pairs = sorted(zip(colors[graph.nbr_indices[lo:hi]].tolist(),
                               incident_color[lo:hi].tolist()))
            signatures.append((int(colors[u]), tuple(pairs)))
        new_colors = _canonical_ids(signatures)
        if np.array_equal(new_colors, colors):
            rounds_to_stabilize = round_no - 1
            break
        colors = new_colors
        history.append(colors)

    return Coloring(node_colors=history[-1], history=history,
                    rounds_to_stabilize=rounds_to_stabilize)


def _cluster_column(values: np.ndarray, tolerance: float) -> np.ndarray:
    """Cluster scalars whose sorted gaps are <= tolerance; ids follow value
    order, so equal inputs always get equal ids."""
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    if ranked.size == 0:
        return np.zeros(0, dtype=np.int64)
    breaks = np.empty(ranked.size, dtype=np.int64)
    breaks[0] = 0
    breaks[1:] = (np.diff(ranked) > tolerance).astype(np.int64)
    ids_sorted = np.cumsum(breaks)
    out = np.empty_like(ids_sorted)
    out[order] = ids_sorted
    return out


def quantize_edge_values(values, tolerance: float = QUANTIZE_TOL) -> np.ndarray:
    """Turn real-valued per-edge measures into discrete color ids.

    Values within ``tolerance`` of each other (transitively, via sorted gap
    clustering) receive the same id, so measure ties survive rounding noise.
    A 2-D input is clustered per column independently.

    Returns:
        (m,) int ids for 1-D input; (m, d) ids for 2-D input, which for
        d == 2 can be passed straight to :func:`wl_refine` as
        direction-dependent edge colors.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance!r}")
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 1:
        return _cluster_column(arr, tolerance)
    if arr.ndim == 2:
        cols = [_cluster_column(arr[:, j], tolerance)
                for j in range(arr.shape[1])]
        return np.column_stack(cols)
    raise ValueError(f"expected 1-D or 2-D values, got shape {arr.shape}")


def refines(fine: np.ndarray, coarse: np.ndarray) -> bool:
    """True when the fine partition never merges nodes that the coarse one
    separates (every fine class sits inside one coarse class)."""
    fine = np.asarray(fine)
    coarse = np.asarray(coarse)
    if fine.shape != coarse.shape:
        raise ValueError("partitions must cover the same nodes")
    seen: dict[int, int] = {}
    for f, c in zip(fine.tolist(), coarse.tolist()):
        if f in seen and seen[f] != c:
            return False
        seen[f] = c
    return True


@dataclass(frozen=True)
class ExpressivityVariant:
    """One refinement variant inside an :class:`ExpressivityReport`."""

    name: str
    num_classes: int
    class_sizes: list[int]
    strictly_refines_plain: bool
    node_colors: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class ExpressivityReport:
    """Plain refinement next to three affinity-augmented variants."""

    variants: dict

    def __getitem__(self, name: str) -> ExpressivityVariant:
        return self.variants[name]

    def to_dict(self) -> dict:
        return {
            name: {
                "num_classes": var.num_classes,
                "class_sizes": var.class_sizes,
                "strictly_refines_plain": var.strictly_refines_plain,
                "node_colors": var.node_colors.tolist(),
            }
            for name, var in self.variants.items()
        }


def expressivity_report(graph: Graph) -> ExpressivityReport:
    """Run plain refinement and the three affinity-augmented variants.

    The augmented variants color each edge by (a) its effective resistance,
    (b) the ordered pair of hitting times across it, or (c) the embedding
    difference norm ||r_u - r_v||, which is sqrt(Res(u, v)) for the exact
    embedding, each quantized at :data:`QUANTIZE_TOL`. Exact measures only,
    so the graph must be within the pseudoinverse's node cap.
    """
    from .measures import AffinityTable

    table = AffinityTable.exact(graph)
    eu = graph.edge_u
    ev = graph.edge_v

    plain = wl_refine(graph)

    res_colors = quantize_edge_values(table.res[eu, ev])
    er_coloring = wl_refine(graph, edge_colors=res_colors)

    ht_flat = np.concatenate([table.hit[eu, ev], table.hit[ev, eu]])
    ht_ids = quantize_edge_values(ht_flat)
    ht_colors = np.column_stack([ht_ids[:graph.num_edges],
                                 ht_ids[graph.num_edges:]])
    ht_coloring = wl_refine(graph, edge_colors=ht_colors)

    norms = np.sqrt(table.res[eu, ev])
    emb_coloring = wl_refine(graph, edge_colors=quantize_edge_values(norms))

    variants = {}
    for name, coloring in (("plain", plain), ("er", er_coloring),
                           ("ht", ht_coloring), ("embedding", emb_coloring)):
        strict = (refines(coloring.node_colors, plain.node_colors)
                  and coloring.num_classes > plain.num_classes)
        variants[name] = ExpressivityVariant(
            name=name,
            num_classes=coloring.num_classes,
            class_sizes=coloring.class_sizes(),
            strictly_refines_plain=strict,
            node_colors=coloring.node_colors,
        )
    return ExpressivityReport(variants=variants)
