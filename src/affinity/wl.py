"""Color refinement (1-WL) with optional edge colors, plus the quantization
step that turns real-valued affinity measures into discrete edge colors.

Edge colors are ranked exactly, once, so a signature is a tuple of int codes,
interned through a dict. Class ids follow first-seen node order, so colorings
are deterministic and directly comparable between graphs refined together
(e.g. on a disjoint union). Refinement ends at a discrete partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import Graph
from .measures import _closed_form
from .solvers import dense_pseudoinverse

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
    return np.array([mapping.setdefault(val, len(mapping)) for val in values],
                    dtype=np.int64)


def wl_refine(graph: Graph, initial_node_colors=None, edge_colors=None,
              max_rounds: int | None = None) -> Coloring:
    """Iterated color refinement.

    Each round replaces a node's color with the pair (old color, sorted
    multiset of (neighbor color, incident edge color)). Edge colors may be
    omitted (all edges alike), a flat (m,) array (symmetric), or an (m, 2)
    array giving a direction-dependent color: column 0 is seen from edge_u's
    side, column 1 from edge_v's side.

    Edge colors are compared exactly: ranked once with ``np.unique``, so an
    incidence's (neighbor color, edge color) pair is one int code that sorts
    in pair order. Edge i is seen from edge_u[i] with column 0 and from
    edge_v[i] with column 1; each round one lexsort groups codes by node.

    Refinement stops when a round leaves the partition unchanged, or would
    (the partition is discrete), or after ``max_rounds`` rounds, whichever
    comes first.
    """
    n = graph.num_nodes
    m = graph.num_edges
    initial = np.zeros(n, np.int64) if initial_node_colors is None \
        else np.asarray(initial_node_colors)
    if initial.shape != (n,):
        raise ValueError(f"initial colors must have shape ({n},)")
    ec = np.zeros(m, np.int64) if edge_colors is None \
        else np.asarray(edge_colors)
    if ec.shape not in ((m,), (m, 2)):
        raise ValueError(f"edge colors must have shape ({m},) or ({m}, 2)")

    colors = _canonical_ids(initial.tolist())
    limit = max_rounds if max_rounds is not None else max(n, 1)
    history = [colors]
    # dense ids reach n - 1 only on a discrete partition, which no round can
    # split, so round 1 would leave it unchanged: skip the incidence set-up
    if limit >= 1 and colors.max(initial=-1) == n - 1:
        return Coloring(node_colors=colors, history=history,
                        rounds_to_stabilize=0)
    rounds_to_stabilize: int | None = None
    node = np.concatenate([graph.edge_u, graph.edge_v])
    nbr = np.concatenate([graph.edge_v, graph.edge_u])
    edge_values, seen = np.unique(
        ec.T.ravel() if ec.ndim == 2 else np.concatenate([ec, ec]),
        return_inverse=True)
    # sorted by node, the incidences of u end at ends[u]
    ends = np.cumsum(np.bincount(node, minlength=n)).tolist()

    for round_no in range(1, limit + 1):
        if colors.max(initial=-1) == n - 1:
            rounds_to_stabilize = round_no - 1
            break
        codes = colors[nbr] * edge_values.size + seen
        codes = codes[np.lexsort((codes, node))].tolist()
        signatures = [(c, tuple(codes[lo:hi])) for c, lo, hi
                      in zip(colors.tolist(), [0] + ends, ends)]
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
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, not a break
        breaks[1:] = np.diff(ranked) > tolerance
    ids_sorted = np.cumsum(breaks)
    out = np.empty_like(ids_sorted)
    out[order] = ids_sorted
    return out


def quantize_edge_values(values, tolerance: float = QUANTIZE_TOL) -> np.ndarray:
    """Turn real-valued per-edge measures into discrete color ids.

    Values within ``tolerance`` of each other (transitively, via sorted gap
    clustering) receive the same id, so measure ties survive rounding noise.
    A 2-D input is clustered per column independently. A NaN value, which
    has no place in the order, or a tolerance that is not finite and
    positive raises ValueError.

    Returns:
        (m,) int ids for 1-D input; (m, d) ids for 2-D input, which for
        d == 2 can be passed straight to :func:`wl_refine` as
        direction-dependent edge colors.
    """
    if not (0 < tolerance < np.inf):
        raise ValueError(f"tolerance must be finite and > 0, got {tolerance!r}")
    arr = np.asarray(values, dtype=np.float64)
    if np.isnan(arr).any():
        raise ValueError("values must not be NaN")
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
    read per edge off the pseudoinverse, so the graph must be within its
    node cap.

    The variants start from plain's stable coloring: a stable colored
    partition is equitable, so it refines plain's and is reached from either
    start, with the same first-seen ids. Equal edge ids are refined once.
    """
    res, forth, back = _closed_form(graph, dense_pseudoinverse(graph),
                                    graph.edge_u, graph.edge_v)
    # one clustering over both directions, then column 0 seen from edge_u
    ht_ids = quantize_edge_values(np.concatenate([forth, back]))

    plain = wl_refine(graph)
    colorings = {"plain": plain}
    refined = []  # (edge ids, coloring) of each edge coloring refined so far
    for name, ids in (("er", quantize_edge_values(res)),
                      ("ht", ht_ids.reshape(2, -1).T),
                      ("embedding", quantize_edge_values(np.sqrt(res)))):
        same = [c for prev, c in refined if np.array_equal(prev, ids)]
        colorings[name] = same[0] if same \
            else wl_refine(graph, plain.node_colors, ids)
        refined.append((ids, colorings[name]))

    variants = {}
    for name, coloring in colorings.items():
        # started from plain's colors, every variant refines plain
        strict = coloring.num_classes > plain.num_classes
        variants[name] = ExpressivityVariant(
            name=name,
            num_classes=coloring.num_classes,
            class_sizes=coloring.class_sizes(),
            strictly_refines_plain=strict,
            node_colors=coloring.node_colors,
        )
    return ExpressivityReport(variants=variants)
