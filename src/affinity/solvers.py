"""Laplacian linear algebra: pseudoinverse, nullspace projection, and solves.

:func:`solve_laplacian` is the one solve entry point, and the graph picks its
route, once, before anything is factored:

- graphs under :data:`DENSE_SOLVE_NODES` nodes multiply by the cached dense
  pseudoinverse (a plain (n, n) array, which every exact path caps at
  :data:`EXACT_NODE_CAP` nodes), built from the inverse of the grounded
  Laplacian (the lowest node of each component removed);
- graphs whose reverse Cuthill-McKee envelope profile is at most
  n ** :data:`DIRECT_PROFILE_EXPONENT` (paths, grids: little fill) solve with
  a sparse LU of the same grounded Laplacian, factored once per graph and
  cached;
- all others (expanders, whose factors fill in densely) run block
  preconditioned conjugate gradient (Jacobi preconditioner) against the
  sparse Laplacian :func:`~affinity.graph.build_graph` stores on the graph.

A right-hand side column holding NaN or inf is refused before any route
runs. Every route solves for the right-hand side with the nullspace of
component indicator vectors projected out. Both sparse routes project the
solution once more and check each column's true residual against
:attr:`SolverConfig.rel_tolerance`; PCG alone has an iteration cap.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from .graph import Graph, _is_int

_PINV_CACHE: "weakref.WeakKeyDictionary[Graph, np.ndarray]" = \
    weakref.WeakKeyDictionary()
#: Per graph: None for the PCG route, else (kept nodes, SuperLU factor of the
#: Laplacian restricted to them).
_FACTOR_CACHE: "weakref.WeakKeyDictionary[Graph, tuple | None]" = \
    weakref.WeakKeyDictionary()
#: Per graph: the (components x n) CSC indicator of component membership.
_INDICATOR_CACHE: "weakref.WeakKeyDictionary[Graph, sparse.csc_matrix]" = \
    weakref.WeakKeyDictionary()

#: Largest 1-norm condition number of the grounded Laplacian that
#: :func:`dense_pseudoinverse` accepts; weights 10^U(-6, 6) stay under 2e12.
GROUNDED_COND_LIMIT = 1e13

#: Node count above which the exact (dense pseudoinverse) paths refuse a graph.
EXACT_NODE_CAP = 2048

#: Node count from which :func:`solve_laplacian` runs block PCG; smaller
#: graphs go through the dense pseudoinverse.
DENSE_SOLVE_NODES = 512

#: A graph from DENSE_SOLVE_NODES nodes up takes the sparse LU route when its
#: reverse Cuthill-McKee profile is at most n ** DIRECT_PROFILE_EXPONENT, i.e.
#: when the mean envelope width is at most sqrt(n). Grids sit near 0.7 sqrt(n)
#: and paths far below; random expanders sit at 3-130 sqrt(n), and factoring
#: a 20k-node one took 169 s on 2 cores, where its whole PCG sketch took 11 s.
DIRECT_PROFILE_EXPONENT = 1.5


class SolverConvergenceError(RuntimeError):
    """A solve cannot meet its residual tolerance: a right-hand side column
    holds NaN or inf (any route), PCG missed it within its iteration cap,
    either sparse route failed its closing true-residual check, or the dense
    pseudoinverse's grounded Laplacian is singular (no columns to report).

    Attributes:
        residuals: relative residual of each failed column.
        columns: indices of the failed right-hand-side columns.
    """

    def __init__(self, message: str, residuals=None, columns=None):
        super().__init__(message)
        self.residuals = residuals
        self.columns = columns


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the sparse routes of :func:`solve_laplacian`; the dense
    route, taken by graphs under :data:`DENSE_SOLVE_NODES` nodes, uses
    neither.

    Attributes:
        rel_tolerance: both sparse routes must reach the true residual
            ||L x - b|| <= rel_tolerance * ||b|| per column; PCG stops when
            its recurrence residual gets there.
        max_iterations: PCG iteration cap; None means 10*sqrt(n) + 200. The
            sparse LU route does not iterate and ignores it.
    """

    rel_tolerance: float = 1e-8
    max_iterations: int | None = None

    def __post_init__(self):
        if not (0 < self.rel_tolerance < 1):
            raise ValueError("rel_tolerance must be in (0, 1)")
        if self.max_iterations is not None:
            if not _is_int(self.max_iterations) or self.max_iterations < 1:
                raise ValueError(f"max_iterations must be None or an int "
                                 f">= 1, got {self.max_iterations!r}")
            # a plain int keeps the manifest JSON-serializable
            object.__setattr__(self, "max_iterations", int(self.max_iterations))

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
                    weights: np.ndarray | None = None) -> np.ndarray:
    """Per-component sums of the rows of mat, each row times its node's
    weight if weights are given, summed in node order by one product with
    the graph's cached (components x n) sparse indicator."""
    indicator = _INDICATOR_CACHE.get(graph)
    if indicator is None:
        n = graph.num_nodes
        indicator = sparse.csc_matrix(
            (np.ones(n), graph.component_of, np.arange(n + 1)),
            shape=(graph.num_components, n))
        _INDICATOR_CACHE[graph] = indicator
    # a unit entry times a weighted row is the weighted row: same bits as
    # weights stored in the indicator
    return indicator @ (mat if weights is None else weights[:, None] * mat)


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
    counts = np.bincount(graph.component_of, minlength=graph.num_components)
    sums = _component_sums(graph, mat)
    out = mat - (sums / counts[:, None])[graph.component_of]
    return out[:, 0] if single else out


def _kept_nodes(graph: Graph) -> np.ndarray:
    """Every node but each component's lowest, which is grounded (removed).
    Labels are numbered by each component's lowest node, so a node is its
    component's lowest when its label exceeds every earlier node's label."""
    comp = graph.component_of
    return np.flatnonzero(comp[1:] <= np.maximum.accumulate(comp)[:-1]) + 1


def dense_pseudoinverse(graph: Graph) -> np.ndarray:
    """Pseudoinverse of the Laplacian, an (n, n) symmetric array cached per
    graph instance and read-only, since every caller shares it.

    L+ = P [L_g^-1 0; 0 0] P, where L_g is the Laplacian without each
    component's lowest node and P removes each component's mean, from the
    columns and then from the rows. A graph without edges has L+ = 0.

    Raises:
        ValueError: if the graph has more than :data:`EXACT_NODE_CAP` nodes.
        SolverConvergenceError: if the condition number ||L_g||_1
            ||L_g^-1||_1 exceeds :data:`GROUNDED_COND_LIMIT`.
    """
    n = graph.num_nodes
    if n > EXACT_NODE_CAP:
        raise ValueError(f"exact computation capped at {EXACT_NODE_CAP} nodes "
                         f"(graph has {n}); pass epsilon to sketch instead")
    cached = _PINV_CACHE.get(graph)
    if cached is not None:
        return cached
    keep = _kept_nodes(graph)
    grounded = dense_laplacian(graph)[keep][:, keep]
    try:
        inverse = np.linalg.inv(grounded)
    except np.linalg.LinAlgError:  # an exactly singular pivot
        inverse = np.full_like(grounded, np.inf)
    cond = (np.abs(grounded).sum(axis=0).max(initial=0.0)
            * np.abs(inverse).sum(axis=0).max(initial=0.0))
    if not cond <= GROUNDED_COND_LIMIT:
        raise SolverConvergenceError(
            f"grounded Laplacian is singular to working precision: condition "
            f"number {cond:.3e} > {GROUNDED_COND_LIMIT:.0e} for edge weights "
            f"from {graph.edge_w.min():.3g} to {graph.edge_w.max():.3g}")
    pinv = np.zeros((n, n))
    pinv[keep[:, None], keep] = inverse
    pinv = project_out_nullspace(graph, project_out_nullspace(graph, pinv).T)
    pinv = 0.5 * (pinv + pinv.T)
    pinv.setflags(write=False)
    _PINV_CACHE[graph] = pinv
    return pinv


def _convergence_error(route: str, rel_tolerance: float, resid: np.ndarray,
                       bnorm: np.ndarray) -> SolverConvergenceError | None:
    """The error listing every column whose residual is not within
    rel_tolerance times its right-hand side's norm, or None if there is
    none."""
    failed = np.flatnonzero(~(resid <= rel_tolerance * bnorm))
    if not failed.size:
        return None
    rel = resid[failed] / bnorm[failed]
    return SolverConvergenceError(
        f"{route} missed tolerance {rel_tolerance:g} on {failed.size} "
        f"column(s); worst relative residual {float(rel.max()):.3e} at "
        f"column {int(failed[np.argmax(rel)])}", residuals=rel, columns=failed)


def pcg(matvec, precond_diag_inv: np.ndarray, rhs: np.ndarray,
        rel_tolerance: float, max_iterations: int) -> tuple[np.ndarray, int]:
    """Block preconditioned conjugate gradient with per-column convergence.

    The (n, k) block keeps its shape throughout. A column stays active until
    its residual is within rel_tolerance times its right-hand side's norm; an
    inactive column gets zero step and zero direction update, so it freezes
    where it converged (an all-zero column never moves from zero), and
    results do not depend, beyond rounding, on how columns are batched. A
    singular semidefinite operator needs right-hand sides in its range only
    (Kaasschieter, J. Comput. Appl. Math. 24, 1988); the iterate may gather
    a nullspace part, which the caller removes.

    Args:
        matvec: callable mapping an (n, k) block to A times that block.
        precond_diag_inv: (n,) inverse of the diagonal preconditioner.
        rhs: (n, k) right-hand sides.
        rel_tolerance: per-column relative residual target.
        max_iterations: iteration cap.

    Returns:
        (solution block, iterations used).

    Raises:
        SolverConvergenceError: listing the columns that missed the target.
    """
    k = rhs.shape[1]
    d_inv = precond_diag_inv[:, None]
    bnorm = np.linalg.norm(rhs, axis=0)
    x = np.zeros_like(rhs)
    r = rhs.copy()
    z = d_inv * r
    p = z.copy()
    rz = np.einsum("ij,ij->j", r, z)

    for iterations in range(max_iterations + 1):
        resid = np.sqrt(np.einsum("ij,ij->j", r, r))
        active = ~(resid <= rel_tolerance * bnorm)
        if not active.any():
            return x, iterations
        if iterations == max_iterations:
            raise _convergence_error(f"PCG after {max_iterations} iterations",
                                     rel_tolerance, resid, bnorm)
        ap = matvec(p)
        pap = np.einsum("ij,ij->j", p, ap)
        # pap can only vanish if a direction fell entirely into the nullspace;
        # stall that column rather than dividing by zero.
        alpha = np.divide(rz, pap, out=np.zeros(k), where=active & (pap > 0))
        # z is scratch until it takes the new preconditioned residual
        x += np.multiply(p, alpha, out=z)
        r -= np.multiply(ap, alpha, out=z)
        np.multiply(d_inv, r, out=z)
        rz_new = np.einsum("ij,ij->j", r, z)
        beta = np.divide(rz_new, rz, out=np.zeros(k), where=active)
        p *= beta
        p += z
        rz = rz_new


def _rcm_profile(lap: sparse.csr_matrix) -> int:
    """Envelope profile sum_i (i - first column of row i) of lap under its
    reverse Cuthill-McKee ordering; it bounds the fill of an LU factor."""
    n = lap.shape[0]
    order = reverse_cuthill_mckee(lap, symmetric_mode=True)
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    # every row holds its diagonal entry, so no row segment is empty
    first = np.minimum.reduceat(position[lap.indices], lap.indptr[:-1])
    return int((position - first).sum())


def _grounded_factor(graph: Graph):
    """The graph's sparse LU route, decided and factored once per graph:
    None when its profile predicts too much fill for a factor, else (kept
    nodes, SuperLU factor of the Laplacian restricted to them), with the
    lowest node of every component grounded (removed), which leaves a
    nonsingular matrix."""
    if graph in _FACTOR_CACHE:
        return _FACTOR_CACHE[graph]
    lap = laplacian_csr(graph)
    n = graph.num_nodes
    factor = None
    if _rcm_profile(lap) <= n ** DIRECT_PROFILE_EXPONENT:
        keep = _kept_nodes(graph)
        factor = (keep, splu(lap[keep][:, keep].tocsc(),
                             permc_spec="MMD_AT_PLUS_A"))
    _FACTOR_CACHE[graph] = factor
    return factor


def _solve_route(graph: Graph) -> str:
    """The route :func:`solve_laplacian` takes for the graph: "dense" under
    :data:`DENSE_SOLVE_NODES` nodes, else "sparse LU" when
    :func:`_grounded_factor` factors the graph, else "PCG"."""
    if graph.num_nodes < DENSE_SOLVE_NODES:
        return "dense"
    return "PCG" if _grounded_factor(graph) is None else "sparse LU"


def solve_laplacian(graph: Graph, b: np.ndarray,
                    config: SolverConfig | None = None) -> np.ndarray:
    """Solve L x = b in the least-squares sense, for (n,) or (n, k) inputs.

    The right-hand side is first projected onto the range of L (per-component
    mean removed), and the graph picks the route, as the module docstring
    lists. Either sparse route's solution is projected onto the range of L
    once, and every column's true residual must then meet
    ``config.rel_tolerance``; ``config.max_iterations`` caps PCG only.

    Raises:
        SolverConvergenceError: on every route, before any solve, when a
            column of b holds NaN or inf (its residual reads NaN); when the
            dense pseudoinverse refuses the graph; and when a sparse route
            misses the tolerance.
    """
    config = config or SolverConfig()
    b = np.asarray(b, dtype=np.float64)
    single = b.ndim == 1
    mat = b[:, None] if single else b
    if mat.ndim != 2 or mat.shape[0] != graph.num_nodes:
        raise ValueError(f"right-hand side must have leading dimension "
                         f"{graph.num_nodes}, got shape {b.shape}")
    bad = np.flatnonzero(~np.isfinite(mat).all(axis=0))
    if bad.size:
        raise SolverConvergenceError(
            f"right-hand side holds NaN or inf in {bad.size} column(s), "
            f"first at column {int(bad[0])}",
            residuals=np.full(bad.size, np.nan), columns=bad)
    projected = project_out_nullspace(graph, mat)
    route = _solve_route(graph)
    if route == "dense":
        x = dense_pseudoinverse(graph) @ projected
        return x[:, 0] if single else x
    n = graph.num_nodes
    lap = laplacian_csr(graph)
    if route == "sparse LU":
        keep, lu = _grounded_factor(graph)
        x = np.zeros_like(projected)
        x[keep] = lu.solve(projected[keep])
    else:
        safe_deg = np.where(graph.degrees > 0, graph.degrees, 1.0)
        x, _ = pcg(lambda block: lap @ block, 1.0 / safe_deg, projected,
                   config.rel_tolerance, config.iteration_cap(n))
    x = project_out_nullspace(graph, x)
    error = _convergence_error(route, config.rel_tolerance,
                               np.linalg.norm(lap @ x - projected, axis=0),
                               np.linalg.norm(projected, axis=0))
    if error is not None:
        raise error
    return x[:, 0] if single else x
