"""Monte Carlo walks, generators, shortest paths, orbits, and the witness."""

import numpy as np
import pytest

from affinity.graph import CrossComponentError, build_graph
from affinity.measures import hitting_time_exact
from affinity.oracle import (WITNESS_EDGES, _cubic_graphs_8,
                             automorphism_orbits, broken_cycle_resistance,
                             build_cycle, build_path, counterexample_pair,
                             cycle_resistance, find_witness_graph,
                             grounded_hitting_times, random_connected_graph,
                             witness_graph)
from oracles import (automorphism_orbits as vf2_automorphism_orbits,
                     mc_hitting_time, spd_bellman_ford)


def test_mc_single_edge_is_exact():
    g = build_graph(2, [(0, 1)])
    est = mc_hitting_time(g, 0, 1, num_walks=64, seed=0)
    assert est.mean == 1.0
    assert est.stderr == 0.0
    assert est.truncated == 0


def test_mc_same_node_is_zero():
    g = build_path(3)
    est = mc_hitting_time(g, 1, 1, num_walks=16, seed=0)
    assert est.mean == 0.0


def test_mc_deterministic_per_seed():
    g = build_path(4)
    a = mc_hitting_time(g, 0, 3, num_walks=500, seed=42)
    b = mc_hitting_time(g, 0, 3, num_walks=500, seed=42)
    assert a.mean == b.mean and a.stderr == b.stderr


def test_mc_agrees_with_exact_within_three_stderr():
    g = random_connected_graph(12, 3.0, (0.5, 2.0), seed=6)
    exact = hitting_time_exact(g, 3)
    est = mc_hitting_time(g, 0, 3, num_walks=6000, seed=9)
    assert est.truncated == 0
    assert abs(est.mean - exact[0]) <= 3.0 * est.stderr + 1e-12


def test_mc_sampling_order_is_pinned():
    # Edges out of canonical order on three components (node 6 is isolated).
    # Canonical edges: (1,2,3) (3,4,2) (0,2,.5) (0,1,1) (2,5,1.5), so the
    # walk table lists node 2's neighbours as 5, 1, 0 (edges where it is
    # edge_u first, then edges where it is edge_v, each in edge order). The
    # numbers pin that order and the draw per step for this seed.
    g = build_graph(7, [(1, 2, 3.0), (3, 4, 2.0), (2, 0, 0.5), (0, 1, 1.0),
                        (5, 2, 1.5)])
    est = mc_hitting_time(g, 0, 5, num_walks=40, seed=11)
    assert est.mean == 8.725
    assert est.stderr == 1.3685981504575757
    assert est.truncated == 0


def test_mc_rejects_nodes_outside_the_graph():
    g = build_path(4)
    with pytest.raises(ValueError, match="node -1 out of range"):
        mc_hitting_time(g, -1, 0, num_walks=10)
    with pytest.raises(ValueError, match="node 7 out of range"):
        mc_hitting_time(g, 0, 7, num_walks=10)


def test_grounded_hitting_times_closed_forms():
    # path 0-1-2: H(0, 2) = 4, H(1, 2) = 3, H(0, 1) = 1; isolated node 3
    g = build_graph(4, [(0, 1), (1, 2)])
    hit = grounded_hitting_times(g)
    assert np.allclose(hit[:3, :3], [[0.0, 1.0, 4.0],
                                     [3.0, 0.0, 3.0],
                                     [4.0, 1.0, 0.0]], atol=1e-12)
    assert hit[3, 3] == 0.0
    assert np.all(np.isinf(hit[3, :3])) and np.all(np.isinf(hit[:3, 3]))


def test_mc_weighted_walk_bias():
    # walker at 1 moves to 2 with probability 3/4: H(1, 2) = E[steps]
    # first-step analysis: h = 1 + (1/4)(1 + h') ... easier: compare to exact
    g = build_graph(3, [(0, 1, 1.0), (1, 2, 3.0)])
    exact = hitting_time_exact(g, 2)
    est = mc_hitting_time(g, 1, 2, num_walks=8000, seed=3)
    assert abs(est.mean - exact[1]) <= 3.0 * est.stderr


def test_mc_truncation_reported():
    g = build_path(30)
    est = mc_hitting_time(g, 0, 29, num_walks=50, max_steps=5, seed=0)
    assert est.truncated == 50
    assert est.mean == 5.0


def test_mc_cross_component_raises():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(CrossComponentError):
        mc_hitting_time(g, 0, 2, num_walks=10)


def test_generators_shapes():
    c = build_cycle(5)
    assert c.num_edges == 5 and np.all(c.degrees == 2)
    p = build_path(5)
    assert p.num_edges == 4 and p.degrees.tolist() == [1, 2, 2, 2, 1]
    with pytest.raises(ValueError):
        build_cycle(2)
    with pytest.raises(ValueError):
        build_path(1)


def test_counterexample_pair_structure():
    for k in (1, 2, 5):
        cycle, broken = counterexample_pair(k)
        n = 4 * k + 1
        assert cycle.num_nodes == broken.num_nodes == n
        assert cycle.num_edges == n and broken.num_edges == n - 1
        # the missing edge is exactly (2k, 2k+1)
        cycle_edges = set(zip(cycle.edge_u.tolist(), cycle.edge_v.tolist()))
        broken_edges = set(zip(broken.edge_u.tolist(), broken.edge_v.tolist()))
        assert cycle_edges - broken_edges == {(2 * k, 2 * k + 1)}
        assert broken.num_components == 1


def test_closed_forms_match_direct_computation():
    from affinity.measures import effective_resistance
    cycle, broken = counterexample_pair(2)
    n = cycle.num_nodes
    for i in (1, 3, 4, 5):
        assert abs(effective_resistance(cycle, 0, i)
                   - cycle_resistance(n, i)) <= 1e-10
        assert abs(effective_resistance(broken, 0, i)
                   - broken_cycle_resistance(n, i)) <= 1e-10


def test_random_connected_graph_properties():
    g = random_connected_graph(50, 4.0, (0.5, 2.0), seed=1)
    assert g.num_components == 1
    assert g.num_edges == round(4.0 * 50 / 2)
    assert np.all(g.edge_w >= 0.5) and np.all(g.edge_w <= 2.0)
    h = random_connected_graph(50, 4.0, (0.5, 2.0), seed=1)
    assert np.array_equal(g.edge_u, h.edge_u)
    assert np.array_equal(g.edge_w, h.edge_w)
    assert not np.array_equal(
        g.edge_u, random_connected_graph(50, 4.0, (0.5, 2.0), seed=2).edge_u)


def test_random_connected_graph_validation():
    with pytest.raises(ValueError):
        random_connected_graph(1, 2.0)
    with pytest.raises(ValueError):
        random_connected_graph(10, 3.0, (0.0, 1.0))


def test_bellman_ford_weighted():
    g = build_graph(4, [(0, 1, 2.0), (1, 2, 2.0), (0, 3, 1.0), (3, 2, 10.0)])
    dist = spd_bellman_ford(g, 0)
    assert dist.tolist() == [0.0, 2.0, 4.0, 1.0]


def test_bellman_ford_unreachable():
    g = build_graph(3, [(0, 1)])
    dist = spd_bellman_ford(g, 0)
    assert np.isinf(dist[2])


def test_bellman_ford_matches_networkx():
    import networkx as nx
    g = random_connected_graph(30, 3.0, (0.5, 2.0), seed=7)
    nxg = nx.Graph()
    for u, v, w in zip(g.edge_u.tolist(), g.edge_v.tolist(),
                       g.edge_w.tolist()):
        nxg.add_edge(u, v, weight=w)
    expected = nx.single_source_dijkstra_path_length(nxg, 0)
    dist = spd_bellman_ford(g, 0)
    for node, d in expected.items():
        assert abs(dist[node] - d) <= 1e-9


def test_automorphism_orbits_cycle_and_path():
    assert np.all(automorphism_orbits(build_cycle(6)) == 0)
    orbits = automorphism_orbits(build_path(4))
    assert orbits.tolist() == [0, 1, 1, 0]


def test_automorphism_orbits_match_vf2():
    cubic = [build_graph(8, edges) for edges in _cubic_graphs_8()]
    graphs = [g for g in cubic if g.num_components == 1]
    graphs += [build_path(n) for n in range(3, 9)]
    graphs += [build_cycle(n) for n in range(3, 9)]
    for g in graphs:
        assert np.array_equal(automorphism_orbits(g),
                              vf2_automorphism_orbits(g))


def test_automorphism_orbits_refuse_more_than_eight_nodes():
    with pytest.raises(ValueError, match="at most 8 nodes, got 9"):
        automorphism_orbits(build_path(9))


def test_witness_fixture_is_cubic_and_connected():
    g = witness_graph()
    assert g.num_nodes == 8 and g.num_edges == 12
    assert np.all(g.degrees == 3.0)
    assert g.num_components == 1


def test_witness_orbits_sizes():
    orbits = automorphism_orbits(witness_graph())
    assert sorted(np.bincount(orbits).tolist()) == [2, 2, 4]


def test_find_witness_graph_matches_frozen_fixture():
    found = find_witness_graph()
    assert list(zip(found.edge_u.tolist(), found.edge_v.tolist())) \
        == sorted(WITNESS_EDGES)


def test_witness_edge_resistances():
    from affinity.measures import effective_resistance
    g = witness_graph()
    orbits = automorphism_orbits(g)
    values = {}
    for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
        key = tuple(sorted((int(orbits[u]), int(orbits[v]))))
        res = effective_resistance(g, u, v)
        values.setdefault(key, res)
        assert abs(values[key] - res) <= 1e-12  # consistent within the class
    observed = sorted(values.values())
    expected = sorted([2 / 3, 15 / 28, 4 / 7, 185 / 336, 209 / 336])
    assert len(observed) == 5
    for got, want in zip(observed, expected):
        assert abs(got - want) <= 1e-12
