"""Resistive embeddings, exact and sketched.

The exact embedding of node v is the column of C^(1/2) B L+ indexed by v
(B the edge-node incidence matrix, C the diagonal conductance matrix), so
squared distances between rows reproduce effective resistances exactly.
The sketched variant compresses the m-dimensional rows with a dense Gaussian
projection applied implicitly: row i of the sketch is L+ B^T C^(1/2) g_i / sqrt(k)
for a standard normal g_i, which needs one Laplacian solve per row and never
materializes the projection matrix.

:func:`random_rotation` returns a plain (dim, dim) rotation array; it is
applied to feature sets by :func:`affinity.features.augment_with_rotation`,
the package's one rotation path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sparse

from .graph import Graph
from .solvers import (SolverConfig, SolverConvergenceError, dense_pseudoinverse,
                      solve_laplacian)


@dataclass(frozen=True)
class ResistiveEmbedding:
    """Per-node embedding whose squared distances approximate resistances.

    Attributes:
        vectors: (n, dim) float64, one row per node.
        kind: "exact" or "sketched".
        mean: stationary-weighted mean row, sum_u pi_u vectors[u].
        epsilon: distortion parameter of the sketch (None when exact).
        seed: sketch seed (None when exact).
    """

    vectors: np.ndarray
    kind: str
    mean: np.ndarray
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


def _incidence_with_conductance(graph: Graph) -> sparse.csr_matrix:
    """S = C^(1/2) B as an (m, n) CSR matrix, rows following edge order."""
    m = graph.num_edges
    root_w = np.sqrt(graph.edge_w)
    rows = np.concatenate([np.arange(m), np.arange(m)])
    cols = np.concatenate([graph.edge_u, graph.edge_v])
    vals = np.concatenate([root_w, -root_w])
    return sparse.coo_matrix((vals, (rows, cols)),
                             shape=(m, graph.num_nodes)).tocsr()


def exact_embedding(graph: Graph) -> ResistiveEmbedding:
    """Dense m-dimensional resistive embedding via the pseudoinverse.

    Row v is C^(1/2) B L+ 1_v. Squared row distances equal effective
    resistances exactly (up to the pseudoinverse's own rounding). The graph
    must be within the pseudoinverse's node cap.
    """
    pinv = dense_pseudoinverse(graph)
    scaled_incidence = _incidence_with_conductance(graph)
    vectors = np.ascontiguousarray((scaled_incidence @ pinv).T)
    mean = _stationary_mean(graph, vectors)
    return ResistiveEmbedding(vectors=vectors, kind="exact", mean=mean)


def _stationary_mean(graph: Graph, vectors: np.ndarray) -> np.ndarray:
    if graph.total_weight <= 0:
        return np.zeros(vectors.shape[1])
    pi = graph.degrees / (2.0 * graph.total_weight)
    return pi @ vectors


def sketched_embedding(graph: Graph, epsilon: float, seed: int,
                       config: SolverConfig | None = None,
                       chunk_size: int = 128) -> ResistiveEmbedding:
    """Gaussian-sketched resistive embedding in k = O(log(mn)/eps^2) dims.

    Each sketch row is generated from an independent, reproducible stream
    (seeded by (seed, row index)), folded into the node space with one pass
    over the edges, and pushed through a Laplacian solve. The solve tolerance
    is tightened to min(config.rel_tolerance, epsilon / 10) so solver error
    stays well under the sketch distortion.

    Args:
        graph: input graph; must have at least one edge.
        epsilon: target distortion in (0, 1).
        seed: non-negative base seed for the Gaussian streams.
        config: solver settings (dense threshold, tolerance, iteration cap).
        chunk_size: number of sketch rows solved per batch.
    """
    if graph.num_edges < 1:
        raise ValueError("sketched embedding needs at least one edge")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")
    n = graph.num_nodes
    m = graph.num_edges
    k = jl_dimension(n, m, epsilon)  # validates epsilon too
    config = config or SolverConfig()
    solve_config = replace(config, rel_tolerance=min(config.rel_tolerance,
                                                     epsilon / 10.0))
    root_w = np.sqrt(graph.edge_w)
    scale = 1.0 / math.sqrt(k)

    vectors = np.empty((n, k))
    for start in range(0, k, chunk_size):
        stop = min(k, start + chunk_size)
        block = np.empty((n, stop - start))
        for i in range(start, stop):
            gauss = np.random.default_rng([seed, i]).standard_normal(m)
            edge_mass = gauss * root_w * scale
            block[:, i - start] = (
                np.bincount(graph.edge_u, weights=edge_mass, minlength=n)
                - np.bincount(graph.edge_v, weights=edge_mass, minlength=n))
        try:
            vectors[:, start:stop] = solve_laplacian(graph, block, solve_config)
        except SolverConvergenceError as exc:
            rows = [start + int(c) for c in (exc.columns if exc.columns
                                             is not None else [])]
            raise SolverConvergenceError(
                f"sketch rows {rows} did not converge: {exc}",
                residuals=exc.residuals, columns=np.asarray(rows)) from exc

    mean = _stationary_mean(graph, vectors)
    return ResistiveEmbedding(vectors=vectors, kind="sketched", mean=mean,
                              epsilon=float(epsilon), seed=int(seed))


def random_rotation(dim: int, seed: int) -> np.ndarray:
    """(dim, dim) Haar-ish random rotation: QR of a Gaussian matrix, signs
    fixed so R has a positive diagonal, then one column flipped if needed to
    land in SO(dim)."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim!r}")
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    if np.linalg.det(q) < 0:
        q[:, -1] = -q[:, -1]
    return q
