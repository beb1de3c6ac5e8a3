"""Effective resistances, hitting/commute times, and the affinity tables."""

import warnings

import numpy as np
import pytest

import affinity.measures as measures
from affinity import solvers
from affinity.embeddings import exact_embedding, sketched_embedding
from affinity.features import assemble_features
from affinity.graph import CrossComponentError, build_graph, \
    stationary_distribution
from affinity.measures import (AffinityTable, commute_time,
                               effective_resistance, hitting_time_exact,
                               hitting_time_via_embedding,
                               tetali_hitting_time)
from affinity.oracle import (build_cycle, build_path, cycle_resistance,
                             grounded_hitting_times, random_connected_graph)
from oracles import disjoint_union, spd_bellman_ford


def test_triangle_resistance():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert abs(effective_resistance(g, 0, 1) - 2.0 / 3.0) <= 1e-12


def test_resistance_series_parallel():
    # two parallel 2-hop branches of conductance 1/2 each -> Res = 1
    g = build_graph(4, [(0, 1), (1, 3), (0, 2), (2, 3)])
    assert abs(effective_resistance(g, 0, 3) - 1.0) <= 1e-12
    # a weighted edge is a conductance: Res = 1/w
    h = build_graph(2, [(0, 1, 4.0)])
    assert abs(effective_resistance(h, 0, 1) - 0.25) <= 1e-12


def test_resistance_cycle_closed_form():
    g = build_cycle(9)
    for i in (1, 2, 4):
        assert abs(effective_resistance(g, 0, i)
                   - cycle_resistance(9, i)) <= 1e-10


def test_resistance_same_node_and_validation():
    g = build_cycle(5)
    assert effective_resistance(g, 2, 2) == 0.0
    with pytest.raises(ValueError):
        effective_resistance(g, 0, 5)


def test_resistance_cross_component_raises():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(CrossComponentError, match="infinite"):
        effective_resistance(g, 0, 2)


def test_pair_measures_share_one_node_pair_check():
    g = build_graph(5, [(0, 1), (1, 2, 2.0), (3, 4)])
    emb = exact_embedding(g)
    res = AffinityTable.exact(g).res
    pi = np.full(5, 0.2)
    for measure in (effective_resistance, commute_time,
                    lambda g, u, v: hitting_time_via_embedding(emb, g, u, v),
                    lambda g, u, v: tetali_hitting_time(g, res, pi, u, v)):
        assert measure(g, 4, 4) == 0.0
        assert measure(g, 0, 2) > 0.0
        with pytest.raises(ValueError, match="u=5 outside 0..4"):
            measure(g, 5, 0)
        with pytest.raises(ValueError, match="v=-1 outside 0..4"):
            measure(g, 0, -1)
        with pytest.raises(CrossComponentError, match="nodes 2 and 3"):
            measure(g, 2, 3)


def test_measures_reject_non_integer_node_ids():
    # a float id used to be truncated: Res(0.5, 3) came back as Res(0, 3)
    g = build_path(4)
    emb = exact_embedding(g)
    res = AffinityTable.exact(g).res
    pi = stationary_distribution(g)
    for measure in (effective_resistance, commute_time,
                    lambda g, u, v: hitting_time_via_embedding(emb, g, u, v),
                    lambda g, u, v: tetali_hitting_time(g, res, pi, u, v)):
        with pytest.raises(ValueError, match=r"u=0\.5 is not an integer"):
            measure(g, 0.5, 3)
        with pytest.raises(ValueError, match=r"v=2\.7 is not an integer"):
            measure(g, 0, 2.7)
        assert measure(g, np.int64(0), np.int32(3)) == measure(g, 0, 3)
    with pytest.raises(ValueError, match=r"target=1\.5 is not an integer"):
        hitting_time_exact(g, 1.5)
    assert np.array_equal(hitting_time_exact(g, np.int64(3)),
                          hitting_time_exact(g, 3))


def test_resistance_bounded_by_shortest_path(corpus_small):
    # Rayleigh monotonicity: resistance never exceeds the 1/w path length
    for g in corpus_small[:6]:
        dist = spd_bellman_ford(
            build_graph(g.num_nodes,
                        np.column_stack([g.edge_u, g.edge_v, 1.0 / g.edge_w])),
            0)
        for v in (g.num_nodes // 2, g.num_nodes - 1):
            if v == 0:
                continue
            assert effective_resistance(g, 0, v) <= dist[v] + 1e-9


def test_hitting_time_path_values():
    g = build_path(3)
    assert np.allclose(hitting_time_exact(g, 2), [4.0, 3.0, 0.0], atol=1e-10)
    assert np.allclose(hitting_time_exact(g, 0), [0.0, 3.0, 4.0], atol=1e-10)


def test_hitting_time_triangle_symmetric():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert np.allclose(hitting_time_exact(g, 0), [0.0, 2.0, 2.0], atol=1e-10)


def test_hitting_time_outside_component_is_inf():
    g = build_graph(4, [(0, 1), (2, 3)])
    h = hitting_time_exact(g, 0)
    assert h[0] == 0.0
    assert np.isfinite(h[1])
    assert np.isinf(h[2]) and np.isinf(h[3])


def test_hitting_time_iterative_path_agrees(pcg_route):
    g = random_connected_graph(80, 3.5, (0.5, 2.0), seed=1)
    dense = hitting_time_exact(g, 5)
    pcg_route()
    iterative = hitting_time_exact(g, 5)
    assert np.max(np.abs(dense - iterative)) <= 1e-6


def test_commute_identity_small():
    g = build_path(3)
    # K(0,2) = H(0,2) + H(2,0) = 8 = 2 * M * Res(0,2) = 2 * 2 * 2
    assert abs(commute_time(g, 0, 2) - 8.0) <= 1e-10


def test_embedding_hitting_matches_system(corpus_small):
    for g in corpus_small[:6]:
        emb = exact_embedding(g)
        grounded = grounded_hitting_times(g)
        rng = np.random.default_rng(2)
        for _ in range(5):
            u, v = rng.integers(0, g.num_nodes, 2)
            u, v = int(u), int(v)
            h_sys = grounded[u, v]
            h_emb = hitting_time_via_embedding(emb, g, u, v)
            assert abs(h_sys - h_emb) <= 1e-6 * max(1.0, h_sys)


def test_hitting_on_disconnected_uses_component_mass():
    # two disjoint 3-paths: each keeps the standalone H(end, end) = 4
    g = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    emb = exact_embedding(g)
    assert abs(hitting_time_via_embedding(emb, g, 0, 2) - 4.0) <= 1e-9
    assert abs(hitting_time_via_embedding(emb, g, 3, 5) - 4.0) <= 1e-9
    with pytest.raises(CrossComponentError):
        hitting_time_via_embedding(emb, g, 0, 5)


def test_tetali_identity_on_path():
    g = build_path(3)
    table = AffinityTable.exact(g)
    pi = stationary_distribution(g)
    assert abs(tetali_hitting_time(g, table.res, pi, 0, 2) - 4.0) <= 1e-10
    assert abs(tetali_hitting_time(g, table.res, pi, 1, 0) - 3.0) <= 1e-10


def test_tetali_rejects_incomplete_table():
    g = build_path(3)
    table = AffinityTable.exact(g)
    bad = table.res.copy()
    bad[0, 1] = np.inf
    with pytest.raises(ValueError, match="incomplete"):
        tetali_hitting_time(g, bad, stationary_distribution(g), 0, 2)
    with pytest.raises(ValueError, match="must be"):
        tetali_hitting_time(g, bad[:2, :2],
                            stationary_distribution(g), 0, 1)


def test_affinity_table_exact_path():
    g = build_path(3)
    table = AffinityTable.exact(g)
    assert table.kind == "exact"
    assert abs(table.h_max - 4.0) <= 1e-10
    assert abs(table.res[0, 2] - 2.0) <= 1e-10
    assert np.allclose(np.diag(table.hit), 0.0)
    assert table.total_weight == 2.0


def test_affinity_table_cross_component_entries():
    g = build_graph(4, [(0, 1), (2, 3)])
    table = AffinityTable.exact(g)
    assert np.isinf(table.res[0, 2])
    assert np.isinf(table.hit[0, 3])
    assert np.isfinite(table.hit[0, 1])


def _three_components():
    """Nodes 0-5: weighted graph; 6-9: unit 4-cycle; 10: isolated."""
    heavy = random_connected_graph(6, 3.0, (0.5, 3.0), seed=11)
    cycle = build_cycle(4)
    g, _ = disjoint_union(heavy, cycle)
    g, _ = disjoint_union(g, build_graph(1, []))
    assert g.num_components == 3
    assert heavy.total_weight != cycle.total_weight
    return g, heavy, cycle


def test_affinity_table_exact_matches_grounded_oracle_across_components():
    g, heavy, cycle = _three_components()
    table = AffinityTable.exact(g)
    grounded = grounded_hitting_times(g)
    same = g.component_of[:, None] == g.component_of[None, :]
    assert np.array_equal(np.isfinite(table.hit), same)
    assert np.array_equal(np.isfinite(grounded), same)
    assert np.all(np.diag(table.hit) == 0.0)
    assert np.max(np.abs(table.hit[same] - grounded[same])) \
        <= 1e-9 * max(1.0, float(grounded[same].max()))
    assert table.h_max == pytest.approx(float(grounded[same].max()),
                                        rel=1e-12)
    # commute identity with each component's own edge mass
    for nodes, part in ((np.arange(6), heavy), (np.arange(6, 10), cycle)):
        block = np.ix_(nodes, nodes)
        assert np.allclose(table.hit[block] + table.hit[block].T,
                           2.0 * part.total_weight * table.res[block],
                           rtol=1e-12, atol=1e-10)


def test_affinity_table_exact_on_edgeless_graph():
    g = build_graph(4, [])
    table = AffinityTable.exact(g)
    grounded = grounded_hitting_times(g)
    expected = np.full((4, 4), np.inf)
    np.fill_diagonal(expected, 0.0)
    assert np.array_equal(table.hit, expected)
    assert np.array_equal(grounded, expected)
    assert np.array_equal(table.res, expected)
    assert table.h_max == 0.0


def test_degrees_and_component_masses_are_float64_without_edges():
    # bincount of an empty array is int64 whatever its weights
    g = build_graph(3, [])
    assert g.degrees.dtype == np.float64
    masses = measures._component_masses(g)
    assert masses.dtype == np.float64
    assert np.array_equal(masses, [0.0, 0.0, 0.0])


def test_hitting_time_exact_pcg_path_matches_grounded_oracle():
    # n >= DENSE_SOLVE_NODES (512), so the solve runs block PCG; the four
    # components keep the dense oracle cheap and exercise the projection
    parts = [random_connected_graph(130, 3.0, (0.5, 2.0), seed=s)
             for s in range(4)]
    g = parts[0]
    for part in parts[1:]:
        g, _ = disjoint_union(g, part)
    assert g.num_nodes >= solvers.DENSE_SOLVE_NODES
    grounded = grounded_hitting_times(g)
    for target in (3, 200, 517):
        got = hitting_time_exact(g, target)
        want = grounded[:, target]
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite)
        assert got[target] == 0.0
        assert np.max(np.abs(got[finite] - want[finite])) \
            <= 1e-6 * max(1.0, float(want[finite].max()))


def test_hitting_time_exact_is_one_laplacian_solve(monkeypatch):
    calls = []
    real = measures.solve_laplacian

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(measures, "solve_laplacian", counting)
    g = random_connected_graph(20, 3.0, (0.5, 2.0), seed=12)
    hitting_time_exact(g, 4)
    assert len(calls) == 1


def test_affinity_table_approximate_close_to_exact():
    g = random_connected_graph(40, 4.0, seed=3)
    exact = AffinityTable.exact(g)
    sketch = sketched_embedding(g, 0.1, seed=1)
    approx = AffinityTable.approximate(sketch, g)
    assert approx.kind == "approximate"
    assert approx.res is None
    assert approx.epsilon == 0.1
    bound = 3 * 0.1 * exact.h_max
    assert np.max(np.abs(approx.hit - exact.hit)) <= bound
    # the Gram-form table agrees with the pointwise vector form
    u, v = int(g.edge_u[0]), int(g.edge_v[0])
    assert abs(approx.hit[u, v]
               - hitting_time_via_embedding(sketch, g, u, v)) <= 1e-9


def test_embedding_hitting_times_match_grounded_oracle_across_components():
    g, _, _ = _three_components()
    grounded = grounded_hitting_times(g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        edge_ht = assemble_features(g, ["edge_ht"]).edge_ht
        emb = exact_embedding(g)
        pairs = [(u, v) for u in range(g.num_nodes) for v in range(g.num_nodes)
                 if u != v and g.same_component(u, v)]
        pointwise = [hitting_time_via_embedding(emb, g, u, v)
                     for u, v in pairs]
    assert np.allclose(edge_ht[:, 0], grounded[g.edge_u, g.edge_v],
                       rtol=1e-8, atol=0)
    assert np.allclose(edge_ht[:, 1], grounded[g.edge_v, g.edge_u],
                       rtol=1e-8, atol=0)
    want = [grounded[u, v] for u, v in pairs]
    assert np.allclose(pointwise, want, rtol=1e-8, atol=0)
