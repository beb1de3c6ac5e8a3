"""Resistive embeddings, exact and sketched.

The exact embedding of node v is the column of C^(1/2) B L+ indexed by v
(B the edge-node incidence matrix, C the diagonal conductance matrix), so
squared distances between rows reproduce effective resistances exactly.
The sketched variant compresses the m-dimensional rows with a random sign
(Rademacher) projection: row i of the sketch is L+ B^T C^(1/2) q_i / sqrt(k)
for m independent +-1 entries q_i, which needs one Laplacian solve per row.
Each row's signs sit at a fixed place of one counter-based stream, so a row
does not depend on how rows are batched.

Work whose whole would be an (m, k) or (n, m) array goes in blocks of at
most :data:`_BLOCK_ENTRIES` float64 entries (4 MiB), one budget that the
sign fold, the exact embedding, the closed forms' edge-row reads and the
(rotated) edge embedding's row differences share; every value is computed
row by row, so the blocks move no bit.

:func:`random_rotation` returns a plain (dim, dim) rotation array; it is
applied to feature sets by :func:`affinity.features.augment_with_rotation`,
the package's one rotation path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sparse

from .graph import Graph, _is_int
from .solvers import SolverConfig, dense_pseudoinverse, solve_laplacian


@dataclass(frozen=True)
class ResistiveEmbedding:
    """Per-node embedding whose squared distances approximate resistances.

    It keeps no stationary mean: hitting times derive it from ``vectors``
    per call, so replacing the vectors (say, rotated) keeps them consistent.

    Attributes:
        vectors: (n, dim) float64, one row per node.
        kind: "exact" or "sketched".
        epsilon: distortion parameter of the sketch (None when exact).
        seed: sketch seed (None when exact).
    """

    vectors: np.ndarray
    kind: str
    epsilon: float | None = None
    seed: int | None = None

    @property
    def num_nodes(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])


#: Oversampling constant c of the sketch dimension; epsilon is the one
#: accuracy setting, since c only enters through c / epsilon^2.
JL_CONSTANT = 4.0


#: float64 entries of one temporary block (4 MiB), the budget every blocked
#: pass shares (see the module docstring).
_BLOCK_ENTRIES = 1 << 19


def _blocks(count: int, width: int) -> list[slice]:
    """Slices that cover range(count) in order, each at most
    ``_BLOCK_ENTRIES // width`` long (and at least 1), so that a (block,
    width) float64 temporary stays within the budget."""
    step = max(1, _BLOCK_ENTRIES // max(1, width))
    return [slice(start, min(count, start + step))
            for start in range(0, count, step)]


def jl_dimension(num_nodes: int, num_edges: int, epsilon: float) -> int:
    """Sketch dimension k = ceil(c * ln(m * n) / epsilon^2), at least 1,
    with c = :data:`JL_CONSTANT`."""
    if num_nodes < 1 or num_edges < 1:
        raise ValueError("need at least one node and one edge")
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon!r}")
    k = math.ceil(JL_CONSTANT * math.log(num_edges * num_nodes) / epsilon ** 2)
    return max(1, k)


def exact_embedding(graph: Graph) -> ResistiveEmbedding:
    """Dense m-dimensional resistive embedding via the pseudoinverse.

    Row v is C^(1/2) B L+ 1_v. Squared row distances equal effective
    resistances exactly (up to the pseudoinverse's own rounding). The graph
    must be within the pseudoinverse's node cap. The (n, m) output is filled
    in column blocks, so no other (n, m) array is made.
    """
    pinv = dense_pseudoinverse(graph)
    root_w = np.sqrt(graph.edge_w)
    vectors = np.empty((graph.num_nodes, graph.num_edges))
    for block in _blocks(graph.num_edges, graph.num_nodes):
        ends_u = pinv[:, graph.edge_u[block]]
        ends_u *= root_w[block]
        ends_v = pinv[:, graph.edge_v[block]]
        ends_v *= root_w[block]
        np.subtract(ends_u, ends_v, out=vectors[:, block])
    return ResistiveEmbedding(vectors=vectors, kind="exact")


#: Name of the sketch's projection, recorded in the export manifest.
PROJECTION = "rademacher-philox4x64"


def _signs(key: np.ndarray, start: int, stop: int,
           num_edges: int) -> np.ndarray:
    """(num_edges, stop - start) float64 array whose column i - start holds
    the signs of sketch row i, +1 for a 0 bit and -1 for a 1 bit. Row i owns
    the W = ceil(num_edges / 256) Philox4x64 counter steps from counter
    i * W, i.e. the 4 W words of ``Philox(key=key, counter=i *
    W).random_raw(4 * W)``, and its bit e is bit e % 64 of word e // 64."""
    steps = -(-num_edges // 256)
    words = np.random.Philox(key=key, counter=start * steps).random_raw(
        (stop - start) * 4 * steps).astype("<u8", copy=False)
    row_bytes = words.view(np.uint8).reshape(stop - start, 32 * steps)
    # unpacking the transposed bytes along axis 0 puts edge e in row e
    signs = np.unpackbits(row_bytes.T, axis=0, count=num_edges,
                          bitorder="little").astype(np.float64, order="C")
    signs *= -2.0
    signs += 1.0
    return signs


def sketched_embedding(graph: Graph, epsilon: float, seed: int,
                       config: SolverConfig | None = None
                       ) -> ResistiveEmbedding:
    """Random-sign-sketched resistive embedding in k = O(log(mn)/eps^2) dims.

    Row i is L+ B^T C^(1/2) q_i / sqrt(k) for m signs q_i read from one
    Philox4x64 stream keyed by ``SeedSequence(seed)`` (layout: :func:`_signs`);
    random +-1 projections keep the JL guarantee of Gaussian ones at the
    same k (Achlioptas 2003). The rows are folded into the node space, as
    the columns of the (n, k) output, by products with the sparse S = B^T
    C^(1/2) / sqrt(k), one per :data:`_BLOCK_ENTRIES` signs, and solved in
    place by one :func:`solve_laplacian` call, which chunks them and names a
    failed row i as column i. The solve tolerance is tightened to
    min(config.rel_tolerance, epsilon / 10) so solver error stays well under
    the sketch distortion.

    Args:
        graph: input graph; must have at least one edge.
        epsilon: target distortion in (0, 1).
        seed: non-negative int key of the sign stream.
        config: solver settings (tolerance, PCG iteration cap) of
            :func:`solve_laplacian`.
    """
    if graph.num_edges < 1:
        raise ValueError("sketched embedding needs at least one edge")
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")
    n, m = graph.num_nodes, graph.num_edges
    k = jl_dimension(n, m, epsilon)  # validates epsilon too
    config = config or SolverConfig()
    solve_config = replace(config, rel_tolerance=min(config.rel_tolerance,
                                                     epsilon / 10.0))
    key = np.random.SeedSequence(int(seed)).generate_state(2, np.uint64)
    # column e of S holds +-sqrt(w_e) / sqrt(k) at the ends of edge e
    edge_mass = np.sqrt(graph.edge_w) * (1.0 / math.sqrt(k))
    fold = sparse.csc_matrix(
        (np.column_stack([edge_mass, -edge_mass]).ravel(),
         np.column_stack([graph.edge_u, graph.edge_v]).ravel(),
         np.arange(0, 2 * m + 1, 2)), shape=(n, m))

    vectors = np.empty((n, k))
    for sub in _blocks(k, m):
        vectors[:, sub] = fold @ _signs(key, sub.start, sub.stop, m)
    solve_laplacian(graph, vectors, solve_config, out=vectors)
    return ResistiveEmbedding(vectors=vectors, kind="sketched",
                              epsilon=float(epsilon), seed=int(seed))


def random_rotation(dim: int, seed: int) -> np.ndarray:
    """(dim, dim) Haar-ish random rotation: QR of a Gaussian matrix, signs
    fixed so R has a positive diagonal, then one column flipped if needed to
    land in SO(dim)."""
    if not _is_int(dim) or dim < 1:
        raise ValueError(f"dim must be an int >= 1, got {dim!r}")
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q
