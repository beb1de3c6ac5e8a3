"""Laplacian linear algebra: pseudoinverse, nullspace projection, and solves.

:func:`solve_laplacian` is the one solve entry point, and the graph picks one
of its two routes, once, before anything is factored:

- graphs whose components all have under :data:`SMALL_COMPONENT_NODES` nodes
  (every graph that small, and unions of small graphs, such as a batch of
  molecules), and graphs whose reverse Cuthill-McKee envelope profile is at
  most n ** :data:`DIRECT_PROFILE_EXPONENT` (paths, grids: little fill),
  solve with a sparse LU of the grounded Laplacian (the lowest node of each
  component removed);
- all others (graphs holding a large expander, whose factor fills in
  densely) run block preconditioned conjugate gradient (Jacobi
  preconditioner) against the sparse Laplacian, as mixed-precision
  iterative refinement (:func:`_refined_pcg`): rounds of float32 PCG to
  :data:`_ROUND_TOLERANCE`, each closed by a float64 correction and a
  float64 true residual, with float64 rounds once a float32 round stalls
  (Carson and Higham, SIAM J. Sci. Comput. 40, 2018).

Exact paths read :func:`dense_pseudoinverse`, the same grounded Laplacian's
inverse; both refuse an ill-conditioned one (:func:`_check_conditioning`).

All that is kept per graph is one plan (:func:`_plan`) in :data:`_PLANS`,
weakly keyed by the graph: the component indicator, built with the plan; the
read-only L+, on the first exact read; the route and its parts (the kept
nodes and SuperLU factor, or the float32 Laplacian and Jacobi inverse), on
the first solve. Nothing in it changes a result: a float32 round that stalls
in one solve is tried again in the next, and a graph that
:func:`_check_conditioning` refuses is refused by every solve.

A right-hand side column holding NaN or inf is refused before either route
runs; both routes end when each column's true residual meets
:attr:`SolverConfig.rel_tolerance`, and PCG alone has an iteration cap.
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

#: Largest 1-norm condition number of the grounded Laplacian that either
#: direct path accepts; weights 10^U(-6, 6) stay under 2e12.
GROUNDED_COND_LIMIT = 1e13

#: Node count above which the exact (dense pseudoinverse) paths refuse a graph.
EXACT_NODE_CAP = 2048

#: A graph whose components all have under SMALL_COMPONENT_NODES nodes always
#: takes the sparse LU route: a component of n_c nodes fills at most about
#: n_c ** 2 entries, so the factor holds at most about 512 n entries.
SMALL_COMPONENT_NODES = 512

#: Any other graph takes the sparse LU route when its reverse Cuthill-McKee
#: profile is at most n ** DIRECT_PROFILE_EXPONENT, i.e. when the mean
#: envelope width is at most sqrt(n). Grids sit near 0.7 sqrt(n) and paths
#: far below; random expanders sit at 3-130 sqrt(n), and factoring a
#: 20k-node one took 169 s on 2 cores, where its whole PCG sketch took 11 s.
#: The rule ignores components, so four disjoint 500-node expanders sit at
#: 3.5 sqrt(n), yet factor in 0.03 s by the rule above.
DIRECT_PROFILE_EXPONENT = 1.5

#: Relative residual target of each float32 round of the PCG route.
_ROUND_TOLERANCE = 1e-4
#: Share of the PCG iteration cap that one float32 round may spend.
_FLOAT32_SHARE = 0.1


class SolverConvergenceError(RuntimeError):
    """A solve cannot meet its residual tolerance: a right-hand side column
    holds NaN or inf (any route), PCG's rounds missed it within the
    iteration cap, the sparse LU route failed its closing true-residual
    check, or a direct path's grounded Laplacian is singular to working
    precision (no columns to report).

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
    """Settings of :func:`solve_laplacian`; ``rel_tolerance`` governs every
    solve, so every sketch, whatever its graph's size.

    Attributes:
        rel_tolerance: both routes must reach the true residual
            ||L x - b|| <= rel_tolerance * ||b|| per column, computed in
            float64.
        max_iterations: cap on the PCG iterations of all rounds of a solve
            together; None means 10*sqrt(n) + 200. The sparse LU route does
            not iterate and ignores it.
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
        return self.max_iterations or int(10 * math.sqrt(max(n, 1))) + 200


@dataclass(eq=False)
class _Plan:
    """One graph's slots (module docstring), each None until built. It must
    not reference the graph, or the value would keep its weak key alive."""

    indicator: sparse.csc_matrix
    pinv: np.ndarray | None = None
    route: str | None = None
    parts: tuple | None = None


_PLANS: "weakref.WeakKeyDictionary[Graph, _Plan]" = weakref.WeakKeyDictionary()


def laplacian_csr(graph: Graph) -> sparse.csr_matrix:
    """Sparse CSR Laplacian L = D - A that :func:`~affinity.graph.build_graph`
    stored on the graph; read-only, since every caller shares it."""
    return graph.laplacian


def dense_laplacian(graph: Graph) -> np.ndarray:
    """Dense copy of the graph's CSR Laplacian."""
    return laplacian_csr(graph).toarray()


def _component_sums(graph: Graph, mat: np.ndarray,
                    weights: np.ndarray | None = None) -> np.ndarray:
    """Per-component sums of the rows of mat, each row times its node's
    weight if weights are given, summed in node order by one product with
    the plan's (components x n) sparse indicator."""
    # a unit entry times a weighted row is the weighted row: same bits as
    # weights stored in the indicator
    return _plan(graph).indicator @ (mat if weights is None
                                     else weights[:, None] * mat)


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


def _check_conditioning(graph: Graph, grounded, inverse_ones: np.ndarray):
    """Raise SolverConvergenceError, without columns, when the grounded
    Laplacian L_g (dense or sparse) has 1-norm condition number ||L_g||_1
    ||L_g^-1||_1 above :data:`GROUNDED_COND_LIMIT`. L_g is a nonsingular
    M-matrix, so L_g^-1 is symmetric and nonnegative, and ||L_g^-1||_1 is the
    largest entry of ``inverse_ones`` = L_g^-1 1 (inf after a zero pivot)."""
    cond = (np.asarray(abs(grounded).sum(axis=0)).max(initial=0.0)
            * inverse_ones.max(initial=0.0))
    if not cond <= GROUNDED_COND_LIMIT:
        raise SolverConvergenceError(
            f"grounded Laplacian is singular to working precision: condition "
            f"number {cond:.3e} > {GROUNDED_COND_LIMIT:.0e} for edge weights "
            f"from {graph.edge_w.min():.3g} to {graph.edge_w.max():.3g}")


def dense_pseudoinverse(graph: Graph) -> np.ndarray:
    """Pseudoinverse of the Laplacian, an (n, n) symmetric array kept in
    the graph's plan and read-only, since every caller shares it.

    L+ = P [L_g^-1 0; 0 0] P, where L_g is the Laplacian without each
    component's lowest node and P removes each component's mean, from the
    columns and then from the rows. A graph without edges has L+ = 0.

    Raises:
        ValueError: if the graph has more than :data:`EXACT_NODE_CAP` nodes.
        SolverConvergenceError: if :func:`_check_conditioning` refuses L_g.
    """
    n = graph.num_nodes
    if n > EXACT_NODE_CAP:
        raise ValueError(f"exact computation capped at {EXACT_NODE_CAP} nodes "
                         f"(graph has {n}); pass epsilon to sketch instead")
    plan = _plan(graph)
    if plan.pinv is not None:
        return plan.pinv
    keep = _kept_nodes(graph)
    grounded = dense_laplacian(graph)[keep][:, keep]
    try:
        inverse = np.linalg.inv(grounded)
    except np.linalg.LinAlgError:  # an exactly singular pivot
        inverse = np.full_like(grounded, np.inf)
    _check_conditioning(graph, grounded, inverse.sum(axis=1))
    pinv = np.zeros((n, n))
    pinv[keep[:, None], keep] = inverse
    pinv = project_out_nullspace(graph, project_out_nullspace(graph, pinv).T)
    pinv = 0.5 * (pinv + pinv.T)
    pinv.setflags(write=False)
    plan.pinv = pinv
    return pinv


def _convergence_error(route: str, rel_tolerance: float, resid: np.ndarray,
                       bnorm: np.ndarray) -> SolverConvergenceError | None:
    """The error listing every column whose residual is not within
    rel_tolerance times its right-hand side's norm, or None."""
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
    """Block preconditioned conjugate gradient with per-column convergence,
    in the dtype of rhs: the iterates, the per-column scalars and the
    preconditioner all take it.

    The (n, k) block keeps its shape throughout. A column stays active until
    its residual is within rel_tolerance times its right-hand side's norm; an
    inactive column gets zero step and zero direction update, so it freezes
    where it converged (an all-zero column never moves from zero). Every
    operation acts on each column alone, in an order that does not depend on
    k, so a column's bits do not depend on the columns batched with it once
    k >= 2 (numpy and scipy take other kernels for a single column). A
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
    d_inv = precond_diag_inv.astype(rhs.dtype)[:, None]
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
        alpha = np.divide(rz, pap, out=np.zeros(k, rhs.dtype),
                          where=active & (pap > 0))
        # z is scratch until it takes the new preconditioned residual
        x += np.multiply(p, alpha, out=z)
        r -= np.multiply(ap, alpha, out=z)
        np.multiply(d_inv, r, out=z)
        rz_new = np.einsum("ij,ij->j", r, z)
        beta = np.divide(rz_new, rz, out=np.zeros(k, rhs.dtype), where=active)
        p *= beta
        p += z
        rz = rz_new


def _refined_pcg(graph: Graph, lap32: sparse.csr_matrix, d_inv: np.ndarray,
                 b: np.ndarray, config: SolverConfig) -> np.ndarray:
    """The PCG route: solve L x = b, for b of shape (n, k >= 2) in the range
    of L, by rounds of :func:`pcg` on the residual, each closed in float64.

    A round solves L dx = r for the active columns, each scaled to unit
    norm (the others are zero and freeze at once); then x + dx is projected
    onto the range of L and r = b - L x is recomputed in float64. The loop
    ends when every column's true residual meets ``config.rel_tolerance``.
    Rounds run in float32, against the plan's float32 copy lap32 of L, to
    :data:`_ROUND_TOLERANCE`. A float32 round that does not get there within
    :data:`_FLOAT32_SHARE` of the iteration cap, or that fails to halve some
    still-active column's true residual, is discarded, and the remaining
    rounds run in float64 to the tolerance itself. ``config.max_iterations``
    caps the iterations of all rounds together, a discarded round's
    included; a miss lists the columns by their true residuals.
    """
    lap = laplacian_csr(graph)
    cap = config.iteration_cap(graph.num_nodes)
    round_cap = int(_FLOAT32_SHARE * cap)
    bnorm = np.linalg.norm(b, axis=0)
    target = config.rel_tolerance * bnorm
    x, r, resid = np.zeros_like(b), b, bnorm
    used, low = 0, True
    while True:
        active = ~(resid <= target)
        if not active.any():
            return x
        operator = lap32 if low else lap
        limit = min(cap - used, round_cap) if low else cap - used
        # unit columns keep float32 clear of overflow and underflow
        rhs = np.empty(b.shape, operator.dtype)
        np.multiply(r, np.divide(1.0, resid, out=np.zeros_like(resid),
                                 where=active), out=rhs, casting="same_kind")
        tol = _ROUND_TOLERANCE if low else \
            float(np.min(target[active] / resid[active]))
        try:
            dx, iterations = pcg(lambda block: operator @ block, d_inv,
                                 rhs, tol, limit)
        except SolverConvergenceError as exc:
            if not low:
                raise _convergence_error(f"PCG after {cap} iterations",
                                         config.rel_tolerance, resid,
                                         bnorm) from exc
            used, low = used + limit, False
            continue
        used += iterations
        step = dx * np.where(active, resid, 0.0)
        step += x
        x_new = project_out_nullspace(graph, step)
        r_new = lap @ x_new
        np.subtract(b, r_new, out=r_new)
        resid_new = np.linalg.norm(r_new, axis=0)
        if low and np.any(active & ~(resid_new
                                     <= np.maximum(0.5 * resid, target))):
            low = False
            continue
        x, r, resid = x_new, r_new, resid_new


def _takes_sparse_lu(graph: Graph) -> bool:
    """The route rule of :data:`SMALL_COMPONENT_NODES` and
    :data:`DIRECT_PROFILE_EXPONENT`: True for sparse LU, False for PCG."""
    n = graph.num_nodes
    if np.bincount(graph.component_of).max(initial=0) < SMALL_COMPONENT_NODES:
        return True
    # the envelope profile sum_i (i - first column of row i) of L in reverse
    # Cuthill-McKee order bounds LU fill; each row holds its diagonal entry,
    # so no reduceat segment is empty
    lap = laplacian_csr(graph)
    position = np.empty(n, dtype=np.int64)
    position[reverse_cuthill_mckee(lap, symmetric_mode=True)] = np.arange(n)
    first = np.minimum.reduceat(position[lap.indices], lap.indptr[:-1])
    return int((position - first).sum()) <= n ** DIRECT_PROFILE_EXPONENT


def _plan(graph: Graph, solve: bool = False) -> _Plan:
    """The graph's plan, made with its indicator on first use; with solve,
    its route and parts too, unless :func:`_check_conditioning` refuses the
    grounded factor (each component's lowest node removed)."""
    plan = _PLANS.get(graph)
    if plan is None:
        n = graph.num_nodes
        plan = _PLANS[graph] = _Plan(sparse.csc_matrix(
            (np.ones(n), graph.component_of, np.arange(n + 1)),
            shape=(graph.num_components, n)))
    if solve and plan.route is None:
        lap = laplacian_csr(graph)
        if _takes_sparse_lu(graph):
            keep = _kept_nodes(graph)
            grounded = lap[keep][:, keep].tocsc()
            try:
                lu = splu(grounded, permc_spec="MMD_AT_PLUS_A")
                inverse_ones = lu.solve(np.ones(keep.size))
            except RuntimeError:  # "Factor is exactly singular"
                inverse_ones = np.full(keep.size, np.inf)
            _check_conditioning(graph, grounded, inverse_ones)
            plan.parts, plan.route = (keep, lu), "sparse LU"
        else:
            plan.parts, plan.route = (lap.astype(np.float32), 1.0 / np.where(
                graph.degrees > 0, graph.degrees, 1.0)), "PCG"
    return plan


def solve_laplacian(graph: Graph, b: np.ndarray,
                    config: SolverConfig | None = None) -> np.ndarray:
    """Solve L x = b in the least-squares sense, for (n,) or (n, k) inputs.

    The right-hand side is first projected onto the range of L (per-component
    mean removed), and the graph picks the route, as the module docstring
    lists. Either route's solution is projected onto the range of L, and
    every column's true residual must meet ``config.rel_tolerance``;
    ``config.max_iterations`` caps PCG only, all its rounds together.

    Raises:
        SolverConvergenceError: on either route, before any solve, when a
            column of b holds NaN or inf (its residual reads NaN); when
            :func:`_check_conditioning` refuses the grounded factor; and when
            a route misses the tolerance.
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
    plan = _plan(graph, solve=True)
    if plan.route == "PCG":
        k = projected.shape[1]
        # a lone column runs beside a zero one, so it takes the batched
        # kernels and matches its own column in any batch bit for bit
        if k == 1:
            projected = np.column_stack([projected, np.zeros(graph.num_nodes)])
        x = _refined_pcg(graph, *plan.parts, projected, config)[:, :k]
        return x[:, 0] if single else x
    keep, lu = plan.parts
    x = np.zeros_like(projected)
    x[keep] = lu.solve(projected[keep])
    x = project_out_nullspace(graph, x)
    resid = np.linalg.norm(laplacian_csr(graph) @ x - projected, axis=0)
    error = _convergence_error("sparse LU", config.rel_tolerance, resid,
                               np.linalg.norm(projected, axis=0))
    if error is not None:
        raise error
    return x[:, 0] if single else x
