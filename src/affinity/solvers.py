"""Laplacian linear algebra: pseudoinverse, nullspace projection, and solves.

:func:`solve_laplacian` is the one solve entry point, and the graph's size
picks its route: graphs under :data:`DENSE_SOLVE_NODES` nodes multiply by the
cached dense eigendecomposition pseudoinverse (a plain (n, n) array, which
every exact path caps at :data:`EXACT_NODE_CAP` nodes); all others run block
preconditioned conjugate gradient (Jacobi preconditioner) against the sparse
Laplacian :func:`~affinity.graph.build_graph` stores on the graph, with the
nullspace of component indicator vectors projected out of the right-hand side
and re-projected every iteration.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .graph import Graph

_PINV_CACHE: "weakref.WeakKeyDictionary[Graph, np.ndarray]" = \
    weakref.WeakKeyDictionary()

#: Relative eigenvalue cutoff below which spectrum entries count as zero.
PINV_RCOND = 1e-10

#: Node count above which the exact (dense pseudoinverse) paths refuse a graph.
EXACT_NODE_CAP = 2048

#: Node count from which :func:`solve_laplacian` runs block PCG; smaller
#: graphs go through the dense pseudoinverse.
DENSE_SOLVE_NODES = 512


class SolverConvergenceError(RuntimeError):
    """PCG failed to reach the requested tolerance within the iteration cap.

    Attributes:
        residuals: relative residual of each failed column.
        columns: indices of the failed right-hand-side columns.
    """

    def __init__(self, message: str, residuals=None, columns=None):
        super().__init__(message)
        self.residuals = residuals
        self.columns = columns


class PseudoinverseRankError(RuntimeError):
    """The number of (near-)zero Laplacian eigenvalues disagreed with the
    connected-component count, which signals an ill-conditioned input."""


@dataclass(frozen=True)
class SolverConfig:
    """PCG settings of :func:`solve_laplacian`; the dense route, taken by
    graphs under :data:`DENSE_SOLVE_NODES` nodes, uses neither.

    Attributes:
        rel_tolerance: PCG stops when ||r|| <= rel_tolerance * ||b|| per column.
        max_iterations: PCG iteration cap; None means 10*sqrt(n) + 200.
    """

    rel_tolerance: float = 1e-8
    max_iterations: int | None = None

    def __post_init__(self):
        if not (0 < self.rel_tolerance < 1):
            raise ValueError("rel_tolerance must be in (0, 1)")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")

    def iteration_cap(self, n: int) -> int:
        if self.max_iterations is not None:
            return self.max_iterations
        return int(10 * math.sqrt(max(n, 1))) + 200


def laplacian_csr(graph: Graph) -> sparse.csr_matrix:
    """Sparse CSR Laplacian L = D - A that :func:`~affinity.graph.build_graph`
    stored on the graph; its arrays are read-only, since every caller shares
    them."""
    return graph.laplacian


def dense_laplacian(graph: Graph) -> np.ndarray:
    """Dense copy of the graph's CSR Laplacian."""
    return laplacian_csr(graph).toarray()


def _component_sums(graph: Graph, mat: np.ndarray,
                    weights: np.ndarray) -> np.ndarray:
    """Per-component sums of the node-weighted rows of mat, summed in node
    order by one (components x n) indicator product."""
    n = graph.num_nodes
    return sparse.csr_matrix((weights, (graph.component_of, np.arange(n))),
                             shape=(graph.num_components, n)) @ mat


def project_out_nullspace(graph: Graph, b: np.ndarray) -> np.ndarray:
    """Subtract the per-component mean from b, columnwise.

    The Laplacian nullspace is spanned by the indicator vectors of the
    connected components, so this makes b solvable. Accepts shape (n,) or
    (n, k).
    """
    b = np.asarray(b, dtype=np.float64)
    single = b.ndim == 1
    mat = b[:, None] if single else b
    if mat.shape[0] != graph.num_nodes:
        raise ValueError(f"expected leading dimension {graph.num_nodes}, "
                         f"got {mat.shape[0]}")
    if graph.num_components <= 1:
        out = mat - mat.mean(axis=0, keepdims=True)
    else:
        comp = graph.component_of
        counts = np.bincount(comp, minlength=graph.num_components).astype(float)
        sums = _component_sums(graph, mat, np.ones(graph.num_nodes))
        out = mat - (sums / counts[:, None])[comp]
    return out[:, 0] if single else out


def dense_pseudoinverse(graph: Graph) -> np.ndarray:
    """Eigendecomposition pseudoinverse of the Laplacian, as an (n, n)
    symmetric array cached per graph instance. The array is read-only,
    since every caller shares it; copy it before writing.

    Eigenvalues at or below ``PINV_RCOND * lambda_max`` are zeroed; the count
    of zeroed eigenvalues must equal the number of connected components. A
    graph without edges has L = 0, so every eigenvalue is zeroed and the
    pseudoinverse is 0.

    Raises:
        ValueError: if the graph has more than :data:`EXACT_NODE_CAP` nodes.
        PseudoinverseRankError: if the numeric nullspace dimension disagrees
            with the component count.
    """
    n = graph.num_nodes
    if n > EXACT_NODE_CAP:
        raise ValueError(f"exact computation capped at {EXACT_NODE_CAP} nodes "
                         f"(graph has {n}); pass epsilon to sketch instead")
    cached = _PINV_CACHE.get(graph)
    if cached is not None:
        return cached
    eigvals, eigvecs = np.linalg.eigh(dense_laplacian(graph))
    cutoff = PINV_RCOND * (float(eigvals[-1]) if n else 0.0)
    zero = eigvals <= cutoff
    num_zero = int(zero.sum())
    if num_zero != graph.num_components:
        raise PseudoinverseRankError(
            f"{num_zero} eigenvalues under cutoff {cutoff:.3e} but graph "
            f"has {graph.num_components} connected components")
    inv = np.where(zero, 0.0, 1.0 / np.where(zero, 1.0, eigvals))
    pinv = (eigvecs * inv) @ eigvecs.T
    pinv = 0.5 * (pinv + pinv.T)
    pinv.setflags(write=False)
    _PINV_CACHE[graph] = pinv
    return pinv


def pcg(matvec, precond_diag_inv: np.ndarray, rhs: np.ndarray,
        rel_tolerance: float, max_iterations: int,
        project) -> tuple[np.ndarray, int]:
    """Block preconditioned conjugate gradient with per-column convergence.

    Each right-hand-side column converges (and freezes) independently, so
    results do not depend on how columns are batched. Columns with zero
    right-hand side return zero immediately.

    Args:
        matvec: callable mapping an (n, k) block to A times that block.
        precond_diag_inv: (n,) inverse of the diagonal preconditioner.
        rhs: (n, k) right-hand sides.
        rel_tolerance: per-column relative residual target.
        max_iterations: iteration cap.
        project: callable applied to the iterate and residual each step
            (used to pin down the Laplacian nullspace).

    Returns:
        (solution block, iterations used).

    Raises:
        SolverConvergenceError: listing the columns that missed the target.
    """
    n, k = rhs.shape
    solution = np.zeros_like(rhs)
    bnorm_all = np.linalg.norm(rhs, axis=0)
    idx = np.flatnonzero(bnorm_all > 0.0)
    if idx.size == 0:
        return solution, 0

    bnorm = bnorm_all[idx]
    x = np.zeros((n, idx.size))
    r = rhs[:, idx].copy()
    z = precond_diag_inv[:, None] * r
    p = z.copy()
    rz = np.einsum("ij,ij->j", r, z)

    for iterations in range(max_iterations + 1):
        resid = np.linalg.norm(r, axis=0)
        done = resid <= rel_tolerance * bnorm
        if done.any():
            finished = np.flatnonzero(done)
            solution[:, idx[finished]] = x[:, finished]
            keep = ~done
            if not keep.any():
                return solution, iterations
            idx = idx[keep]
            bnorm = bnorm[keep]
            resid = resid[keep]
            x = x[:, keep]
            r = r[:, keep]
            z = z[:, keep]
            p = p[:, keep]
            rz = rz[keep]
        if iterations == max_iterations:
            rel = resid / bnorm
            raise SolverConvergenceError(
                f"PCG missed tolerance {rel_tolerance:g} after {max_iterations} "
                f"iterations on {rel.size} column(s); worst relative "
                f"residual {float(rel.max()):.3e} at column {int(idx[np.argmax(rel)])}",
                residuals=rel, columns=idx)
        ap = matvec(p)
        pap = np.einsum("ij,ij->j", p, ap)
        # pap can only vanish if a direction fell entirely into the nullspace;
        # stall that column rather than dividing by zero.
        alpha = np.divide(rz, pap, out=np.zeros_like(rz), where=pap > 0)
        x += p * alpha
        r -= ap * alpha
        x = project(x)
        r = project(r)
        z = precond_diag_inv[:, None] * r
        rz_new = np.einsum("ij,ij->j", r, z)
        beta = rz_new / rz
        p = z + p * beta
        rz = rz_new


def solve_laplacian(graph: Graph, b: np.ndarray,
                    config: SolverConfig | None = None) -> np.ndarray:
    """Solve L x = b in the least-squares sense, for (n,) or (n, k) inputs.

    The right-hand side is first projected onto the range of L (per-component
    mean removed). Graphs under :data:`DENSE_SOLVE_NODES` nodes multiply by
    the cached dense pseudoinverse; all others run Jacobi-preconditioned
    block CG with nullspace re-projection each iteration, under ``config``.
    """
    config = config or SolverConfig()
    b = np.asarray(b, dtype=np.float64)
    single = b.ndim == 1
    mat = b[:, None] if single else b
    if mat.ndim != 2 or mat.shape[0] != graph.num_nodes:
        raise ValueError(f"right-hand side must have leading dimension "
                         f"{graph.num_nodes}, got shape {b.shape}")
    projected = project_out_nullspace(graph, mat)
    n = graph.num_nodes
    if n < DENSE_SOLVE_NODES:
        x = dense_pseudoinverse(graph) @ projected
    else:
        lap = laplacian_csr(graph)
        safe_deg = np.where(graph.degrees > 0, graph.degrees, 1.0)
        x, _ = pcg(lambda block: lap @ block, 1.0 / safe_deg, projected,
                   config.rel_tolerance, config.iteration_cap(n),
                   project=lambda block: project_out_nullspace(graph, block))
    return x[:, 0] if single else x
