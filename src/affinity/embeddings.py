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
