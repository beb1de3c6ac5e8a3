"""Nullspace projection, dense pseudoinverse, and the PCG solve path."""

import numpy as np
import pytest

from affinity.graph import build_graph
from affinity.solvers import (PseudoinverseRankError, SolverConfig,
                              SolverConvergenceError, dense_laplacian,
                              dense_pseudoinverse, laplacian_csr,
                              project_out_nullspace, solve_laplacian)
from affinity.measures import AffinityTable, effective_resistance
from affinity.oracle import build_path, random_connected_graph


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dense_threshold=0)
    with pytest.raises(ValueError):
        SolverConfig(rel_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
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
    g = random_connected_graph(12, 2.5, seed=1)
    with pytest.raises(ValueError, match="capped at 10 nodes"):
        dense_pseudoinverse(g, cap=10)


def test_solve_dense_path_matches_pinv():
    g = random_connected_graph(30, 3.0, (0.5, 2.0), seed=2)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(30)
    x = solve_laplacian(g, b)
    expected = dense_pseudoinverse(g) @ project_out_nullspace(g, b)
    assert np.allclose(x, expected, atol=1e-12)


def test_solve_iterative_agrees_with_dense(corpus_small):
    dense_cfg = SolverConfig()
    pcg_cfg = SolverConfig(dense_threshold=1)
    rng = np.random.default_rng(4)
    for g in corpus_small[:10]:
        b = rng.standard_normal((g.num_nodes, 2))
        xd = solve_laplacian(g, b, dense_cfg)
        xi = solve_laplacian(g, b, pcg_cfg)
        assert np.max(np.abs(xd - xi)) <= 1e-7


def test_solve_residual_meets_tolerance():
    g = random_connected_graph(300, 4.0, seed=7)
    cfg = SolverConfig(dense_threshold=1, rel_tolerance=1e-10)
    rng = np.random.default_rng(8)
    b = project_out_nullspace(g, rng.standard_normal(300))
    x = solve_laplacian(g, b, cfg)
    residual = np.linalg.norm(laplacian_csr(g) @ x - b)
    assert residual <= 1e-10 * np.linalg.norm(b) * 10  # modest slack


def test_solution_orthogonal_to_indicators():
    g = build_graph(5, [(0, 1, 2.0), (1, 2, 1.0), (3, 4, 1.0)])
    b = np.array([1.0, 2.0, -1.0, 5.0, 0.0])
    x = solve_laplacian(g, b)
    for label in range(g.num_components):
        nodes = g.component_nodes(label)
        assert abs(x[nodes].sum()) <= 1e-10


def test_zero_rhs_returns_zero():
    g = random_connected_graph(40, 3.0, seed=9)
    x = solve_laplacian(g, np.zeros((40, 2)), SolverConfig(dense_threshold=1))
    assert np.array_equal(x, np.zeros((40, 2)))


def test_convergence_error_reports_residual_and_column():
    g = random_connected_graph(200, 3.0, seed=10)
    cfg = SolverConfig(dense_threshold=1, rel_tolerance=1e-12,
                       max_iterations=2)
    b = np.random.default_rng(11).standard_normal((200, 3))
    with pytest.raises(SolverConvergenceError) as excinfo:
        solve_laplacian(g, b, cfg)
    err = excinfo.value
    assert err.residuals is not None and len(err.residuals)
    assert err.columns is not None and len(err.columns)
    assert "residual" in str(err)


def test_batched_and_single_column_solves_match():
    g = random_connected_graph(150, 4.0, seed=12)
    cfg = SolverConfig(dense_threshold=1)
    rng = np.random.default_rng(13)
    block = rng.standard_normal((150, 5))
    batched = solve_laplacian(g, block, cfg)
    for j in range(5):
        single = solve_laplacian(g, block[:, j], cfg)
        assert np.max(np.abs(single - batched[:, j])) <= 1e-12


def test_rank_error_name_is_exported():
    # the rank check itself is exercised indirectly; here we pin the contract
    assert issubclass(PseudoinverseRankError, RuntimeError)
