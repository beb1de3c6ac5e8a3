"""Nullspace projection, dense pseudoinverse, and the PCG and sparse LU
solve routes."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sparse

from affinity import solvers
from affinity.graph import build_graph
from affinity.solvers import (SolverConfig, SolverConvergenceError,
                              dense_laplacian, dense_pseudoinverse,
                              laplacian_csr, project_out_nullspace,
                              solve_laplacian)
from affinity.embeddings import sketched_embedding
from affinity.features import assemble_features
from affinity.measures import (AffinityTable, effective_resistance,
                               hitting_time_exact)
from affinity.oracle import build_path, random_connected_graph
from oracles import (build_grid, disjoint_union, pinv_laplacian,
                     rational_edge_resistances)


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rel_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    for bad in (2.5, True, "7"):
        with pytest.raises(ValueError, match="max_iterations"):
            SolverConfig(max_iterations=bad)
    numpy_cap = SolverConfig(max_iterations=np.int64(7))
    assert numpy_cap.iteration_cap(10_000) == 7
    assert type(numpy_cap.max_iterations) is int
    assert SolverConfig().iteration_cap(10_000) == 10 * 100 + 200
    assert SolverConfig(max_iterations=7).iteration_cap(10_000) == 7


def test_project_out_nullspace_two_components():
    g = build_graph(4, [(0, 1), (2, 3)])
    out = project_out_nullspace(g, np.array([2.0, 0.0, 4.0, 0.0]))
    assert np.allclose(out, [1.0, -1.0, 2.0, -2.0])


def test_projection_kills_component_means(corpus_small):
    rng = np.random.default_rng(0)
    for g in corpus_small[:5]:
        block = rng.standard_normal((g.num_nodes, 3))
        out = project_out_nullspace(g, block)
        for label in range(g.num_components):
            nodes = g.component_nodes(label)
            assert np.allclose(out[nodes].sum(axis=0), 0.0, atol=1e-10)


def test_projection_of_a_block_subtracts_each_component_mean():
    # three components of different sizes plus an isolated node
    g = build_graph(9, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 5)])
    block = np.random.default_rng(1).standard_normal((9, 4))
    expected = np.empty_like(block)
    for label in range(g.num_components):
        nodes = g.component_nodes(label)
        total = np.zeros(4)
        for node in nodes:  # node order, as the projection sums
            total = total + block[node]
        expected[nodes] = block[nodes] - total / nodes.size
    out = project_out_nullspace(g, block)
    assert np.array_equal(out, expected)
    assert np.array_equal(out[8], np.zeros(4))


def test_pseudoinverse_single_edge():
    g = build_graph(2, [(0, 1)])
    p = dense_pseudoinverse(g)
    assert np.allclose(p, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-12)


def test_pseudoinverse_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    expected = np.full((3, 3), -1.0 / 9.0)
    np.fill_diagonal(expected, 2.0 / 9.0)
    assert np.allclose(dense_pseudoinverse(g), expected, atol=1e-12)


def test_pseudoinverse_empty_graph():
    g = build_graph(4, [])
    assert np.array_equal(dense_pseudoinverse(g), np.zeros((4, 4)))


def _assert_matches_numpy_pinv(g):
    # the reference is an SVD of a Laplacian the oracle builds itself, never
    # a grounded factor
    expected = pinv_laplacian(g)
    got = dense_pseudoinverse(g)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_pseudoinverse_matches_numpy_pinv(corpus_small):
    for g in corpus_small:
        _assert_matches_numpy_pinv(g)


def test_pseudoinverse_matches_numpy_pinv_across_components():
    # a weighted 4-node component, a triangle and an isolated node: each
    # component's lowest node (0, 4, 7) is grounded
    g = build_graph(8, [(0, 2, 2.0), (2, 1, 0.5), (1, 3), (0, 3, 3.0),
                        (4, 5), (5, 6, 0.25), (4, 6)])
    assert [g.component_nodes(label)[0] for label in range(3)] == [0, 4, 7]
    assert g.num_components == 3
    _assert_matches_numpy_pinv(g)
    edgeless = build_graph(5, [])
    assert np.array_equal(pinv_laplacian(edgeless), np.zeros((5, 5)))
    _assert_matches_numpy_pinv(edgeless)


def test_long_path_edge_resistances_are_one():
    # every edge of a unit path is a bridge of resistance exactly 1; an
    # eigendecomposition pseudoinverse was 1.2e-12 off here
    g = build_path(500)
    er = assemble_features(g, ["edge_er"]).edge_er
    assert np.max(np.abs(er - 1.0)) <= 1e-13


def _spread_graph(n, spread, seed):
    """random_connected_graph(n, 3.0, seed=seed) with its weights redrawn as
    10^U(-spread, spread) from ``seed``."""
    g = random_connected_graph(n, 3.0, seed=seed)
    w = 10.0 ** np.random.default_rng(seed).uniform(-spread, spread,
                                                     g.num_edges)
    return build_graph(n, np.column_stack([g.edge_u, g.edge_v, w]))


def test_rational_oracle_agrees_with_numpy_pinv():
    g = random_connected_graph(12, 3.0, (0.5, 2.0), seed=30)
    ref = rational_edge_resistances(g)
    expected = pinv_laplacian(g)
    d = np.diag(expected)
    er = d[g.edge_u] + d[g.edge_v] - 2.0 * expected[g.edge_u, g.edge_v]
    assert np.max(np.abs(er - ref) / ref) <= 1e-13


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wide_weight_spread_is_accepted_and_accurate(seed):
    # weights over twelve decades: the grounded Laplacian stays far from
    # singular, and exact resistances keep six digits against exact
    # rational arithmetic
    g = _spread_graph(30, 6, 500 + seed)
    er = assemble_features(g, ["edge_er"]).edge_er
    ref = rational_edge_resistances(g)
    assert np.max(np.abs(er - ref) / ref) <= 1e-6


def test_condition_limit_sits_between_spreads_six_and_eight():
    # 60-node graphs: weights over twelve decades reach condition numbers
    # up to 2e12 and are accepted; over sixteen decades, from 1.8e13 up,
    # and are refused
    for seed in range(100, 120):
        dense_pseudoinverse(_spread_graph(60, 6, seed))
        with pytest.raises(SolverConvergenceError, match="condition number"):
            dense_pseudoinverse(_spread_graph(60, 8, seed))


def _singular_path():
    # Res(0, 1) = 1e8, but 1e8 + 1e-8 rounds to 1e8 + 1.5e-8 in float64, and
    # the grounded inverse would give 6.7e7: condition number 2.7e16
    return build_graph(3, [(0, 1, 1e-8), (1, 2, 1e8)])


def test_singular_grounded_laplacian_is_refused():
    weights = r"1e-08 to 1e\+08"
    with pytest.raises(SolverConvergenceError, match="condition number "
                       r"2\.68.e\+16 > 1e\+13.*" + weights) as info:
        dense_pseudoinverse(_singular_path())
    assert info.value.columns is None and info.value.residuals is None
    with pytest.raises(SolverConvergenceError, match=weights):
        AffinityTable.exact(_singular_path())
    for epsilon in (None, 0.5):
        with pytest.raises(SolverConvergenceError, match=weights):
            assemble_features(_singular_path(), ["edge_er", "edge_ht"],
                              epsilon=epsilon)
    # 1 + 1e-17 rounds to 1: an exactly singular pivot, same error
    with pytest.raises(SolverConvergenceError, match="number inf"):
        dense_pseudoinverse(build_graph(3, [(0, 1, 1e-17), (1, 2, 1.0)]))


def test_pseudoinverse_zero_count_matches_components(corpus_small):
    # the pseudoinverse's nullspace is spanned by the component indicators
    for g in corpus_small[:8]:
        pinv = dense_pseudoinverse(g)
        indicators = np.eye(g.num_components)[g.component_of]
        assert np.allclose(pinv @ indicators, 0.0, atol=1e-10)
        assert np.linalg.matrix_rank(pinv) == g.num_nodes - g.num_components


def test_cached_arrays_are_read_only():
    # every caller shares the per-graph caches, so a write must fail
    g = build_path(4)
    pinv = dense_pseudoinverse(g)
    with pytest.raises(ValueError):
        pinv *= 2
    lap = laplacian_csr(g)
    for arr in (lap.data, lap.indices, lap.indptr):
        with pytest.raises(ValueError):
            arr[0] = 0
    assert effective_resistance(g, 0, 3) == pytest.approx(3.0, abs=1e-12)
    assert AffinityTable.exact(g).res[0, 3] == pytest.approx(3.0, abs=1e-12)


def test_pseudoinverse_moore_penrose_identities():
    g = random_connected_graph(24, 3.0, (0.5, 2.0), seed=5)
    lap = dense_laplacian(g)
    pinv = dense_pseudoinverse(g)
    assert np.allclose(lap @ pinv @ lap, lap, atol=1e-9)
    assert np.allclose(pinv @ lap @ pinv, pinv, atol=1e-9)
    assert np.allclose(pinv, pinv.T, atol=1e-14)


def test_pseudoinverse_cap():
    g = build_path(2049)
    with pytest.raises(ValueError, match="capped at 2048 nodes"):
        dense_pseudoinverse(g)


def test_solve_dense_path_matches_pinv():
    g = random_connected_graph(30, 3.0, (0.5, 2.0), seed=2)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(30)
    x = solve_laplacian(g, b)
    expected = dense_pseudoinverse(g) @ project_out_nullspace(g, b)
    assert np.allclose(x, expected, atol=1e-12)


def test_solve_iterative_agrees_with_dense(corpus_small, pcg_route):
    pcg_route()
    rng = np.random.default_rng(4)
    for g in corpus_small[:10]:
        b = rng.standard_normal((g.num_nodes, 2))
        xd = dense_pseudoinverse(g) @ project_out_nullspace(g, b)
        xi = solve_laplacian(g, b)
        assert np.max(np.abs(xd - xi)) <= 1e-7


def test_solve_residual_meets_tolerance(pcg_route):
    pcg_route()
    g = random_connected_graph(300, 4.0, seed=7)
    cfg = SolverConfig(rel_tolerance=1e-10)
    rng = np.random.default_rng(8)
    b = project_out_nullspace(g, rng.standard_normal(300))
    x = solve_laplacian(g, b, cfg)
    residual = np.linalg.norm(laplacian_csr(g) @ x - b)
    assert residual <= 1e-10 * np.linalg.norm(b)


def test_graph_size_picks_the_solve_route(monkeypatch):
    # no SolverConfig reaches the dense route from DENSE_SOLVE_NODES nodes up
    calls = []
    real = solvers.dense_pseudoinverse

    def counting(graph):
        calls.append(graph.num_nodes)
        return real(graph)

    monkeypatch.setattr(solvers, "dense_pseudoinverse", counting)
    assert [f.name for f in dataclasses.fields(SolverConfig)] == \
        ["rel_tolerance", "max_iterations"]
    rng = np.random.default_rng(14)
    large = random_connected_graph(solvers.DENSE_SOLVE_NODES, 4.0, seed=15)
    b = project_out_nullspace(large, rng.standard_normal(large.num_nodes))
    for cfg in (None, SolverConfig(rel_tolerance=0.5),
                SolverConfig(max_iterations=5000)):
        x = solve_laplacian(large, b, cfg)
        tol = (cfg or SolverConfig()).rel_tolerance
        assert np.linalg.norm(laplacian_csr(large) @ x - b) \
            <= tol * np.linalg.norm(b)
    assert calls == []
    small = random_connected_graph(solvers.DENSE_SOLVE_NODES - 1, 4.0, seed=15)
    solve_laplacian(small, rng.standard_normal(small.num_nodes))
    assert calls == [solvers.DENSE_SOLVE_NODES - 1]


def test_solution_orthogonal_to_indicators():
    g = build_graph(5, [(0, 1, 2.0), (1, 2, 1.0), (3, 4, 1.0)])
    b = np.array([1.0, 2.0, -1.0, 5.0, 0.0])
    x = solve_laplacian(g, b)
    for label in range(g.num_components):
        nodes = g.component_nodes(label)
        assert abs(x[nodes].sum()) <= 1e-10


def test_zero_rhs_returns_zero(pcg_route):
    pcg_route()
    g = random_connected_graph(40, 3.0, seed=9)
    x = solve_laplacian(g, np.zeros((40, 2)))
    assert np.array_equal(x, np.zeros((40, 2)))
    # a zero column among nonzero ones stays frozen at zero
    block = np.random.default_rng(9).standard_normal((40, 3))
    block[:, 1] = 0.0
    x = solve_laplacian(g, block)
    assert np.array_equal(x[:, 1], np.zeros(40))
    for j in (0, 2):
        assert np.max(np.abs(x[:, j] - solve_laplacian(g, block[:, j]))) <= 1e-12


def test_convergence_error_reports_residual_and_column(pcg_route):
    pcg_route()
    g = random_connected_graph(200, 3.0, seed=10)
    cfg = SolverConfig(rel_tolerance=1e-12, max_iterations=2)
    b = np.random.default_rng(11).standard_normal((200, 3))
    b[:, 1] = 0.0  # a zero column converges at once and is not reported
    with pytest.raises(SolverConvergenceError) as excinfo:
        solve_laplacian(g, b, cfg)
    err = excinfo.value
    assert err.residuals is not None and len(err.residuals) == 2
    assert list(err.columns) == [0, 2]
    assert "residual" in str(err)


def test_non_finite_rhs_column_is_reported(pcg_route):
    # a NaN column never meets the tolerance: it is an error, not a zero
    pcg_route()
    g = random_connected_graph(40, 3.0, seed=9)
    b = np.random.default_rng(9).standard_normal((40, 2))
    b[0, 1] = np.nan
    with pytest.raises(SolverConvergenceError) as excinfo:
        solve_laplacian(g, b)
    assert list(excinfo.value.columns) == [1]


@pytest.mark.parametrize("route", ["dense", "direct", "pcg"])
def test_non_finite_rhs_is_refused_before_any_route(route, pcg_route):
    # a 40-node path takes the dense route, which would return NaN columns,
    # and a 30 x 30 grid the sparse LU route; PCG would run its whole cap
    g = build_path(40) if route == "dense" else build_grid(30, 30)
    if route == "pcg":
        pcg_route()
    assert (g.num_nodes < solvers.DENSE_SOLVE_NODES) == (route == "dense")
    b = np.random.default_rng(3).standard_normal((g.num_nodes, 4))
    b[5, 0] = np.nan
    b[7, 2] = np.inf
    b[9, 3] = -np.inf
    with pytest.raises(SolverConvergenceError, match="NaN or inf") as info:
        solve_laplacian(g, b)
    assert list(info.value.columns) == [0, 2, 3]
    assert np.isnan(info.value.residuals).all()
    with pytest.raises(SolverConvergenceError, match="NaN or inf") as info:
        solve_laplacian(g, b[:, 2])
    assert list(info.value.columns) == [0]


def test_batched_and_single_column_solves_match(pcg_route):
    pcg_route()
    g = random_connected_graph(150, 4.0, seed=12)
    rng = np.random.default_rng(13)
    block = rng.standard_normal((150, 5))
    batched = solve_laplacian(g, block)
    for j in range(5):
        single = solve_laplacian(g, block[:, j])
        assert np.max(np.abs(single - batched[:, j])) <= 1e-12


# ------------------------------------------------ the sparse LU route

def _laplacian_from_edges(g):
    """Sparse L = D - A assembled here from the edge arrays, independently
    of the Laplacian build_graph stores."""
    n = g.num_nodes
    adj = sparse.coo_matrix((g.edge_w, (g.edge_u, g.edge_v)), shape=(n, n))
    adj = (adj + adj.T).tocsr()
    return sparse.diags(np.asarray(adj.sum(axis=1)).ravel()) - adj


def _with_isolated_node(a, b):
    """The disjoint union of a and b plus one isolated node."""
    union, _ = disjoint_union(a, b)
    return build_graph(union.num_nodes + 1, np.column_stack(
        [union.edge_u, union.edge_v, union.edge_w]))


def test_long_path_sketches_and_hits_in_closed_form():
    # a long path is ill-conditioned: cond(L) grows like n^2
    n = 5000
    g = build_path(n)
    sketch = sketched_embedding(g, 0.5, seed=3)
    d = sketch.vectors[g.edge_u] - sketch.vectors[g.edge_v]
    er = np.einsum("ij,ij->i", d, d)
    # every edge of a unit path is a bridge of resistance exactly 1
    assert np.all((er >= 1 - 3 * 0.5) & (er <= 1 + 3 * 0.5))
    # the walk from one end of a path of n - 1 unit edges to the other
    # takes (n - 1)^2 steps in expectation
    h = hitting_time_exact(g, n - 1)
    assert h[0] == pytest.approx((n - 1) ** 2, rel=1e-8)


@pytest.mark.parametrize("name", ["grid100", "wgrid40", "multi_component",
                                  "pcg_multi_component"])
def test_grids_solve_to_tolerance_under_defaults(name):
    if name == "grid100":
        g = build_grid(100, 100)
    elif name == "wgrid40":
        m = 2 * 40 * 39
        g = build_grid(40, 40, 10.0 ** np.random.default_rng(16)
                       .uniform(-2, 2, m))
    elif name == "multi_component":
        # a grid, a path and an isolated node: three components to ground
        g = _with_isolated_node(build_grid(20, 20), build_path(200))
    else:
        # two random components and an isolated node, too wide to factor
        g = _with_isolated_node(
            random_connected_graph(300, 4.0, (0.5, 2.0), seed=20),
            random_connected_graph(250, 4.0, seed=21))
        assert solvers._grounded_factor(g) is None
    assert g.num_nodes >= solvers.DENSE_SOLVE_NODES
    b = np.random.default_rng(17).standard_normal((g.num_nodes, 3))
    x = solve_laplacian(g, b)
    lap = _laplacian_from_edges(g)
    # b minus its component means is the part of b in the range of L
    comp = g.component_of
    means = np.stack([np.bincount(comp, weights=b[:, j]) for j in range(3)], 1)
    rhs = b - (means / np.bincount(comp)[:, None])[comp]
    for j in range(3):
        assert np.linalg.norm(lap @ x[:, j] - rhs[:, j]) \
            <= SolverConfig().rel_tolerance * np.linalg.norm(rhs[:, j])
    # the least-squares solution has no part in the nullspace
    assert np.allclose(np.bincount(comp, weights=x[:, 0]), 0.0, atol=1e-8)


def test_grid_factors_once_and_an_expander_never(monkeypatch):
    calls = []
    real = solvers.splu

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "splu", counting)
    g = build_grid(30, 30)
    sketch = sketched_embedding(g, 0.5, seed=2, chunk_size=40)
    assert sketch.dim > 3 * 40
    for target in (0, 450, 899, 450):
        hitting_time_exact(g, target)
    # one component: one grounded node
    assert calls == [(899, 899)]

    expander = random_connected_graph(600, 6.0, seed=18)
    sketched_embedding(expander, 0.5, seed=2)
    hitting_time_exact(expander, 7)
    assert calls == [(899, 899)]


def test_sparse_lu_route_reports_missed_tolerance():
    # no float solve reaches a residual of 1e-30 relative
    g = build_path(600)
    b = np.random.default_rng(19).standard_normal((600, 3))
    with pytest.raises(SolverConvergenceError) as excinfo:
        solve_laplacian(g, b, SolverConfig(rel_tolerance=1e-30))
    err = excinfo.value
    assert list(err.columns) == [0, 1, 2]
    assert np.all(err.residuals > 1e-30)
    assert "residual" in str(err)
