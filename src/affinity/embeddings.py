"""Resistive embeddings, exact and sketched.

The exact embedding of node v is the column of C^(1/2) B L+ indexed by v
(B the edge-node incidence matrix, C the diagonal conductance matrix), so
squared distances between rows reproduce effective resistances exactly.
The sketched variant compresses the m-dimensional rows with a random sign
(Rademacher) projection: row i of the sketch is L+ B^T C^(1/2) q_i / sqrt(k)
for m independent +-1 entries q_i, which needs one Laplacian solve per row.
Each row's signs sit at a fixed place of one counter-based stream, so a row
does not depend on how rows are batched.

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
from .solvers import (SolverConfig, SolverConvergenceError, dense_pseudoinverse,
                      solve_laplacian)


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
    must be within the pseudoinverse's node cap.
    """
    pinv = dense_pseudoinverse(graph)
    root_w = np.sqrt(graph.edge_w)
    vectors = np.ascontiguousarray(pinv[:, graph.edge_u] * root_w
                                   - pinv[:, graph.edge_v] * root_w)
    return ResistiveEmbedding(vectors=vectors, kind="exact")


#: Name of the sketch's projection, recorded in the export manifest.
PROJECTION = "rademacher-philox4x64"

#: Sign entries drawn and folded in per sparse product: a chunk's rows go in
#: sub-blocks of at most this many float64 entries (32 MiB).
_SIGN_BLOCK_ENTRIES = 1 << 22


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
                       config: SolverConfig | None = None,
                       chunk_size: int = 128) -> ResistiveEmbedding:
    """Random-sign-sketched resistive embedding in k = O(log(mn)/eps^2) dims.

    Row i is L+ B^T C^(1/2) q_i / sqrt(k) for m signs q_i read from one
    Philox4x64 stream keyed by ``SeedSequence(seed)`` (layout: :func:`_signs`);
    random +-1 projections keep the JL guarantee of Gaussian ones at the
    same k (Achlioptas 2003). Each chunk of ``chunk_size`` rows is folded
    into the node space by one product with the sparse S = B^T C^(1/2) /
    sqrt(k) (one per :data:`_SIGN_BLOCK_ENTRIES` signs on large graphs) and
    goes through one Laplacian solve, so a row's values depend on
    ``chunk_size`` only through the solve's rounding. The solve tolerance is
    tightened to min(config.rel_tolerance, epsilon / 10) so solver error
    stays well under the sketch distortion.

    Args:
        graph: input graph; must have at least one edge.
        epsilon: target distortion in (0, 1).
        seed: non-negative int key of the sign stream.
        config: solver settings (tolerance, PCG iteration cap), used when
            the graph is large enough for :func:`solve_laplacian` to take a
            sparse route.
        chunk_size: number of sketch rows solved per batch, at least 1.
    """
    if graph.num_edges < 1:
        raise ValueError("sketched embedding needs at least one edge")
    if not _is_int(chunk_size) or chunk_size < 1:
        raise ValueError(f"chunk_size must be an int >= 1, got {chunk_size!r}")
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed!r}")
    n = graph.num_nodes
    m = graph.num_edges
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
    rows_per_product = max(1, _SIGN_BLOCK_ENTRIES // m)

    vectors = np.empty((n, k))
    for start in range(0, k, chunk_size):
        stop = min(k, start + chunk_size)
        block = np.empty((n, stop - start))
        for sub in range(start, stop, rows_per_product):
            end = min(stop, sub + rows_per_product)
            block[:, sub - start:end - start] = fold @ _signs(key, sub, end, m)
        try:
            vectors[:, start:stop] = solve_laplacian(graph, block, solve_config)
        except SolverConvergenceError as exc:
            if exc.columns is None:  # the graph itself was refused
                raise
            rows = start + np.asarray(exc.columns)
            worst = int(np.argmax(exc.residuals))
            raise SolverConvergenceError(
                f"{rows.size} of {k} sketch rows ({rows[0]}-{rows[-1]}) did "
                f"not converge, worst at row {rows[worst]}: {exc}",
                residuals=exc.residuals, columns=rows) from exc

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
