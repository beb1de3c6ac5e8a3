"""Nullspace projection, dense pseudoinverse, the grounded Laplacian's
condition test, and the two solve routes, sparse LU and PCG."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sparse

from affinity import embeddings, features, measures, solvers, wl
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


def _spread_graph(n, spread, seed, avg_degree=3.0, weight_seed=None):
    """random_connected_graph(n, avg_degree, seed=seed) with its weights
    redrawn as 10^U(-spread, spread) from ``weight_seed`` (default seed)."""
    g = random_connected_graph(n, avg_degree, seed=seed)
    w = 10.0 ** np.random.default_rng(
        seed if weight_seed is None else weight_seed).uniform(
        -spread, spread, g.num_edges)
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
    # and are refused, by the dense pseudoinverse and by the sketch's
    # grounded factor alike
    for seed in range(100, 120):
        dense_pseudoinverse(_spread_graph(60, 6, seed))
        sketched_embedding(_spread_graph(60, 6, seed), 0.5, seed=1)
        with pytest.raises(SolverConvergenceError, match="condition number"):
            dense_pseudoinverse(_spread_graph(60, 8, seed))
        with pytest.raises(SolverConvergenceError, match="condition number"):
            sketched_embedding(_spread_graph(60, 8, seed), 0.5, seed=1)


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
    # 1 + 1e-17 rounds to 1: an exactly singular pivot, same error, also
    # from the grounded factor, whose SuperLU raises a bare RuntimeError
    with pytest.raises(SolverConvergenceError, match="number inf"):
        dense_pseudoinverse(build_graph(3, [(0, 1, 1e-17), (1, 2, 1.0)]))
    with pytest.raises(SolverConvergenceError, match="number inf") as info:
        solve_laplacian(build_graph(3, [(0, 1, 1e-17), (1, 2, 1.0)]),
                        np.ones(3))
    assert info.value.columns is None


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


def test_small_graph_solve_matches_pinv():
    g = random_connected_graph(30, 3.0, (0.5, 2.0), seed=2)
    assert solvers._plan(g, solve=True).route == "sparse LU"
    rng = np.random.default_rng(3)
    b = rng.standard_normal(30)
    x = solve_laplacian(g, b)
    expected = pinv_laplacian(g) @ b
    assert np.allclose(x, expected, atol=1e-12)


def test_edgeless_graph_solves_to_zero():
    # every node is its own component's grounded node: an empty factor
    for n in (5, 600):
        g = build_graph(n, [])
        assert solvers._plan(g, solve=True).route == "sparse LU"
        b = np.random.default_rng(n).standard_normal((n, 3))
        assert np.array_equal(solve_laplacian(g, b), np.zeros((n, 3)))
        assert effective_resistance(g, 2, 2) == 0.0
        h = hitting_time_exact(g, 2)
        assert h[2] == 0.0 and np.isinf(np.delete(h, 2)).all()


def test_solve_iterative_agrees_with_dense(corpus_small, pcg_route,
                                           monkeypatch):
    # the session corpus is planned by earlier tests; the switch must still
    # send it down PCG, or this compares the LU route with L+
    pcg_route()
    calls = _recording_pcg(monkeypatch)
    rng = np.random.default_rng(4)
    for g in corpus_small[:10]:
        b = rng.standard_normal((g.num_nodes, 2))
        xd = dense_pseudoinverse(g) @ project_out_nullspace(g, b)
        calls.clear()
        xi = solve_laplacian(g, b)
        assert calls and solvers._plan(g).route == "PCG"
        assert np.max(np.abs(xd - xi)) <= 1e-7


def test_solve_residual_meets_tolerance(pcg_route):
    pcg_route()
    g = random_connected_graph(300, 4.0, seed=7)
    cfg = SolverConfig(rel_tolerance=1e-10)
    rng = np.random.default_rng(8)
    b = project_out_nullspace(g, rng.standard_normal(300))
    x = solve_laplacian(g, b, cfg)
    residual = np.linalg.norm(_laplacian_from_edges(g) @ x - b)
    assert residual <= 1e-10 * np.linalg.norm(b)


def _counting_pinv(monkeypatch):
    """Wrap dense_pseudoinverse in every module that calls it; returns the
    list of node counts of the graphs it was called on."""
    calls = []
    real = solvers.dense_pseudoinverse

    def counting(graph):
        calls.append(graph.num_nodes)
        return real(graph)

    for module in (solvers, embeddings, features, measures, wl):
        monkeypatch.setattr(module, "dense_pseudoinverse", counting)
    return calls


def test_graph_size_picks_the_solve_route(monkeypatch):
    # a random graph under SMALL_COMPONENT_NODES nodes is factored, one of
    # that many runs PCG, whatever the SolverConfig; neither solves through
    # the dense pseudoinverse
    calls = _counting_pinv(monkeypatch)
    assert [f.name for f in dataclasses.fields(SolverConfig)] == \
        ["rel_tolerance", "max_iterations"]
    rng = np.random.default_rng(14)
    size = solvers.SMALL_COMPONENT_NODES
    for n, route in ((size - 1, "sparse LU"), (size, "PCG")):
        g = random_connected_graph(n, 4.0, seed=15)
        assert solvers._plan(g, solve=True).route == route
        b = project_out_nullspace(g, rng.standard_normal(n))
        for cfg in (None, SolverConfig(rel_tolerance=0.5),
                    SolverConfig(max_iterations=5000)):
            x = solve_laplacian(g, b, cfg)
            tol = (cfg or SolverConfig()).rel_tolerance
            assert np.linalg.norm(_laplacian_from_edges(g) @ x - b) \
                <= tol * np.linalg.norm(b)
        expected = pinv_laplacian(g) @ b
        assert np.max(np.abs(x - expected)) <= 1e-6 * np.max(np.abs(expected))
    assert calls == []


def test_small_graph_sketch_never_builds_the_pseudoinverse(monkeypatch):
    calls = _counting_pinv(monkeypatch)
    g = random_connected_graph(300, 4.0, (0.5, 2.0), seed=16)
    fs = assemble_features(g, ["edge_er", "edge_ht", "node_embedding"],
                           epsilon=0.5, seed=1)
    assert fs.manifest["solver"]["route"] == "sparse LU"
    effective_resistance(g, 0, 299)
    hitting_time_exact(g, 7)
    assert calls == []
    assemble_features(g, ["edge_er"])  # the exact path reads L+ itself
    assert calls == [300]


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


@pytest.mark.parametrize("route", ["small", "direct", "pcg"])
def test_non_finite_rhs_is_refused_before_any_route(route, pcg_route):
    # a 40-node path (small components) and a 30 x 30 grid (narrow
    # envelope) take the sparse LU route; PCG would run its whole cap
    g = build_path(40) if route == "small" else build_grid(30, 30)
    if route == "pcg":
        pcg_route()
    assert solvers._plan(g, solve=True).route == \
        ("PCG" if route == "pcg" else "sparse LU")
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
        # a random component of SMALL_COMPONENT_NODES nodes or more, too
        # wide to factor, a smaller one and an isolated node
        g = _with_isolated_node(
            random_connected_graph(600, 6.0, (0.5, 2.0), seed=20),
            random_connected_graph(250, 4.0, seed=21))
        assert solvers._plan(g, solve=True).route == "PCG"
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


def _union(*graphs):
    """The disjoint union of the graphs, in order."""
    union = graphs[0]
    for g in graphs[1:]:
        union, _ = disjoint_union(union, g)
    return union


def test_union_of_small_components_takes_the_sparse_lu_route(monkeypatch):
    # every component is under SMALL_COMPONENT_NODES, so the union factors
    # cheaply although its profile is far above n ** DIRECT_PROFILE_EXPONENT
    parts = [random_connected_graph(500, 8.0, (0.5, 2.0), seed=30 + i)
             for i in range(4)]
    g = _union(*parts)
    assert g.num_components == 4
    with monkeypatch.context() as profile_rule_alone:
        profile_rule_alone.setattr(solvers, "SMALL_COMPONENT_NODES", 0)
        assert not solvers._takes_sparse_lu(g)
    assert solvers._plan(g, solve=True).route == "sparse LU"
    # L+ of a union is block diagonal: one SVD pseudoinverse per part
    offsets = np.cumsum([0] + [p.num_nodes for p in parts])
    pinv = np.zeros((g.num_nodes, g.num_nodes))
    for part, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
        pinv[lo:hi, lo:hi] = pinv_laplacian(part)
    b = np.random.default_rng(34).standard_normal((g.num_nodes, 3))
    x = solve_laplacian(g, b)
    assert np.linalg.norm(x - pinv @ b) <= 1e-7 * np.linalg.norm(pinv @ b)

    epsilon = 0.25
    fs = assemble_features(g, ["edge_er"], epsilon=epsilon, seed=3)
    assert fs.manifest["solver"]["route"] == "sparse LU"
    u, v = fs.edge_index.T
    exact = pinv[u, u] + pinv[v, v] - 2 * pinv[u, v]
    assert np.all(np.abs(fs.edge_er - exact) <= 3 * epsilon * exact)


@pytest.mark.parametrize("with_small_parts", [False, True])
def test_a_wide_component_of_dense_solve_nodes_keeps_pcg(with_small_parts):
    g = random_connected_graph(600, 6.0, (0.5, 2.0), seed=35)
    if with_small_parts:
        g = _union(random_connected_graph(300, 4.0, seed=36), g,
                   random_connected_graph(100, 4.0, seed=37))
    assert solvers._plan(g, solve=True).route == "PCG"
    manifest = assemble_features(g, ["edge_er"], epsilon=0.5, seed=1).manifest
    assert manifest["solver"]["route"] == "PCG"


def test_grid_factors_once_and_an_expander_never(monkeypatch):
    calls = []
    real = solvers.splu

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(solvers, "splu", counting)
    monkeypatch.setattr(embeddings, "_CHUNK_ROWS", 40)
    g = build_grid(30, 30)
    sketch = sketched_embedding(g, 0.5, seed=2)
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


# ------------------------------------------- mixed-precision PCG rounds

def _recording_pcg(monkeypatch):
    """Wrap solvers.pcg; returns the list of (rhs dtype name, iteration cap
    given, iterations used or None when the call raised) per call."""
    calls = []
    real = solvers.pcg

    def recording(matvec, precond_diag_inv, rhs, rel_tolerance,
                  max_iterations):
        try:
            x, used = real(matvec, precond_diag_inv, rhs, rel_tolerance,
                           max_iterations)
        except SolverConvergenceError:
            calls.append((rhs.dtype.name, max_iterations, None))
            raise
        calls.append((rhs.dtype.name, max_iterations, used))
        return x, used

    monkeypatch.setattr(solvers, "pcg", recording)
    return calls


def _assert_solves_to_tolerance(g, b, x):
    """Each column's residual under the default tolerance against a
    Laplacian assembled from the edge arrays, and its distance from numpy's
    SVD pseudoinverse solution."""
    lap = _laplacian_from_edges(g)
    rhs = b - b.mean(axis=0)  # one component
    for j in range(b.shape[1]):
        assert np.linalg.norm(lap @ x[:, j] - rhs[:, j]) \
            <= SolverConfig().rel_tolerance * np.linalg.norm(rhs[:, j])
    expected = pinv_laplacian(g) @ b
    assert np.max(np.abs(x - expected)) <= 1e-6 * np.max(np.abs(expected))


def test_pcg_route_runs_float32_rounds_closed_in_float64(monkeypatch):
    g = random_connected_graph(600, 6.0, (0.5, 2.0), seed=20)
    assert solvers._plan(g, solve=True).route == "PCG"
    calls = _recording_pcg(monkeypatch)
    b = np.random.default_rng(21).standard_normal((600, 6))
    x = solve_laplacian(g, b)
    # rounds to 1e-4 each: two reach the default 1e-8
    assert [dtype for dtype, _, _ in calls] == ["float32", "float32"]
    _assert_solves_to_tolerance(g, b, x)


def test_single_column_pcg_solve_is_bitwise_its_batched_column():
    g = random_connected_graph(600, 6.0, (0.5, 2.0), seed=22)
    assert solvers._plan(g, solve=True).route == "PCG"
    block = np.random.default_rng(23).standard_normal((600, 9))
    batched = solve_laplacian(g, block)
    for j in range(9):
        assert np.array_equal(solve_laplacian(g, block[:, j]), batched[:, j])
        assert np.array_equal(solve_laplacian(g, block[:, [j]])[:, 0],
                              batched[:, j])
    assert np.array_equal(solve_laplacian(g, block[:, 2:5]), batched[:, 2:5])
    _assert_solves_to_tolerance(g, block, batched)


def test_sketch_rows_do_not_depend_on_chunk_size(monkeypatch):
    g = random_connected_graph(600, 6.0, (0.5, 2.0), seed=24)
    assert solvers._plan(g, solve=True).route == "PCG"
    rows = {}
    for chunk in (7, 64, 128):
        monkeypatch.setattr(embeddings, "_CHUNK_ROWS", chunk)
        rows[chunk] = sketched_embedding(g, 0.5, seed=4).vectors
    assert rows[7].shape[1] % 7 and rows[7].shape[1] % 64
    assert np.array_equal(rows[7], rows[128])
    assert np.array_equal(rows[64], rows[128])


def test_a_sketch_builds_its_float32_operator_and_preconditioner_once(
        monkeypatch):
    g = random_connected_graph(600, 6.0, (0.5, 2.0), seed=24)
    reference = sketched_embedding(g, 0.5, seed=4).vectors
    seen = []
    real = solvers.pcg

    def keeping(matvec, precond_diag_inv, rhs, rel_tolerance,
                max_iterations):
        seen.append(precond_diag_inv)
        return real(matvec, precond_diag_inv, rhs, rel_tolerance,
                    max_iterations)

    monkeypatch.setattr(solvers, "pcg", keeping)
    monkeypatch.setattr(embeddings, "_CHUNK_ROWS", 40)
    assert reference.shape[1] > 3 * 40
    for _ in range(2):
        rows = sketched_embedding(g, 0.5, seed=4).vectors
        assert np.array_equal(rows, reference)
    # at least one float32 round per chunk, in each of the two sketches
    assert len(seen) >= 2 * 4
    assert all(array is seen[0] for array in seen)
    plan = solvers._plan(g)
    assert plan.route == "PCG" and plan.parts[1] is seen[0]
    assert plan.parts[0].dtype == np.float32


def test_a_graph_is_released_once_its_last_reference_goes():
    # a plan that referenced its graph would keep its own weak key alive
    graphs = [random_connected_graph(300, 4.0, (0.5, 2.0), seed=16),
              random_connected_graph(600, 6.0, (0.5, 2.0), seed=18)]
    routes = []
    for g in graphs:
        fs = assemble_features(g, ["edge_er", "node_embedding"], epsilon=0.5,
                               seed=1)
        routes.append(fs.manifest["solver"]["route"])
        assemble_features(g, ["edge_er", "edge_ht", "node_embedding"])
        effective_resistance(g, 0, 7)
        hitting_time_exact(g, 7)
    assert routes == ["sparse LU", "PCG"]
    graph_refs = [weakref.ref(g) for g in graphs]
    plan_refs = [weakref.ref(solvers._PLANS[g]) for g in graphs]
    assert all(ref().pinv is not None for ref in plan_refs)
    del graphs, g
    gc.collect()
    assert [ref() for ref in graph_refs + plan_refs] == [None] * 4


def test_a_stalled_float32_round_falls_back_to_float64(monkeypatch):
    # weights over eight decades: a float32 round cannot reach its target
    # within a tenth of the cap, so float64 takes over and meets tolerance
    g = _spread_graph(600, 4, 61, avg_degree=10.0)
    assert solvers._plan(g, solve=True).route == "PCG"
    calls = _recording_pcg(monkeypatch)
    b = np.random.default_rng(62).standard_normal((600, 4))
    x = solve_laplacian(g, b)
    assert [(dtype, used is None) for dtype, _, used in calls] == \
        [("float32", True), ("float64", False)]
    _assert_solves_to_tolerance(g, b, x)


def test_a_float32_round_that_fails_to_halve_is_discarded(monkeypatch):
    # a float32 round whose steps are cut to a fifth leaves 80 % of each
    # residual: it is dropped, and float64 rounds solve from where it began
    g = random_connected_graph(600, 6.0, (0.5, 2.0), seed=63)
    real = solvers.pcg
    calls = []

    def damped(matvec, precond_diag_inv, rhs, rel_tolerance, max_iterations):
        x, used = real(matvec, precond_diag_inv, rhs, rel_tolerance,
                       max_iterations)
        calls.append(rhs.dtype.name)
        return (0.2 * x if rhs.dtype == np.float32 else x), used

    monkeypatch.setattr(solvers, "pcg", damped)
    b = np.random.default_rng(64).standard_normal((600, 3))
    x = solve_laplacian(g, b)
    assert calls[0] == "float32" and set(calls[1:]) == {"float64"}
    _assert_solves_to_tolerance(g, b, x)


def test_iteration_cap_counts_every_round(monkeypatch):
    g = _spread_graph(600, 4, 61, avg_degree=10.0)
    calls = _recording_pcg(monkeypatch)
    b = np.random.default_rng(62).standard_normal((600, 4))
    solve_laplacian(g, b)
    cap = SolverConfig().iteration_cap(600)
    (_, cap32, _), (_, cap64, used64) = calls
    assert cap32 == int(solvers._FLOAT32_SHARE * cap)
    assert cap64 == cap - cap32
    # float64 PCG alone needs used64 iterations, but under that cap the
    # discarded float32 round's iterations leave too few for it
    calls.clear()
    with pytest.raises(SolverConvergenceError,
                       match=f"PCG after {used64} iterations") as info:
        solve_laplacian(g, b, SolverConfig(max_iterations=used64))
    assert sum(limit for _, limit, _ in calls) == used64
    assert list(info.value.columns) == [0, 1, 2, 3]
    # no round finished, so the true residual is still that of x = 0
    assert np.array_equal(info.value.residuals, np.ones(4))
    enough = next(m for m in range(used64, 2 * used64)
                  if m - int(solvers._FLOAT32_SHARE * m) >= used64)
    x = solve_laplacian(g, b, SolverConfig(max_iterations=enough))
    _assert_solves_to_tolerance(g, b, x)


def test_weights_over_ten_decades_solve_under_default_settings(monkeypatch):
    # the 5,000-node random graph of average degree 10 with weights
    # 10^U(-5, 5): float64 PCG needs about 440 of its 907 iterations, and
    # the float32 round that stalls first spends at most a tenth of them
    g = _spread_graph(5000, 5, 2, avg_degree=10.0, weight_seed=7)
    assert solvers._plan(g, solve=True).route == "PCG"
    calls = _recording_pcg(monkeypatch)
    b = np.random.default_rng(8).standard_normal((5000, 16))
    x = solve_laplacian(g, b)
    assert [dtype for dtype, _, _ in calls] == ["float32", "float64"]
    lap = _laplacian_from_edges(g)
    rhs = b - b.mean(axis=0)
    assert np.all(np.linalg.norm(lap @ x - rhs, axis=0)
                  <= SolverConfig().rel_tolerance
                  * np.linalg.norm(rhs, axis=0))
