"""Color refinement, quantization, and the expressivity report."""

import numpy as np
import pytest

from affinity.graph import build_graph
from affinity.oracle import (build_cycle, build_path, counterexample_pair,
                             witness_graph)
from oracles import automorphism_orbits, disjoint_union, spd_bellman_ford
from affinity.wl import (expressivity_report, quantize_edge_values, refines,
                         wl_refine)


def test_plain_wl_on_path():
    # path of 4: endpoints vs inner nodes separate after one round, stable
    # after two
    coloring = wl_refine(build_path(4))
    assert coloring.num_classes == 2
    assert coloring.node_colors.tolist() == [0, 1, 1, 0]


def test_plain_wl_regular_graph_never_separates():
    coloring = wl_refine(build_cycle(7))
    assert coloring.num_classes == 1
    assert coloring.rounds_to_stabilize == 0


def test_all_distinct_initial_colors_stable_immediately():
    g = build_path(4)
    coloring = wl_refine(g, initial_node_colors=np.arange(4))
    assert coloring.rounds_to_stabilize == 0
    assert coloring.num_classes == 4
    assert np.array_equal(coloring.history[0], coloring.node_colors)


def test_initial_colors_are_canonicalized():
    g = build_path(3)
    coloring = wl_refine(g, initial_node_colors=np.array([7, 7, 3]))
    assert coloring.history[0].tolist() == [0, 0, 1]


def test_refinement_is_monotone(corpus_small):
    for g in corpus_small[:6]:
        coloring = wl_refine(g)
        for earlier, later in zip(coloring.history, coloring.history[1:]):
            assert refines(later, earlier)
            assert len(set(later.tolist())) >= len(set(earlier.tolist()))


def test_wl_respects_automorphism_orbits(corpus_small):
    # refinement can never split an automorphism orbit
    for g in corpus_small[:4]:
        orbits = automorphism_orbits(g)
        coloring = wl_refine(g)
        for orbit in range(orbits.max() + 1):
            members = np.flatnonzero(orbits == orbit)
            assert len(set(coloring.node_colors[members].tolist())) == 1


def test_edge_colors_refine():
    # a path with one marked edge breaks the reflection symmetry
    g = build_path(4)
    plain = wl_refine(g)
    marked = wl_refine(g, edge_colors=np.array([0, 0, 1]))
    assert marked.num_classes > plain.num_classes
    assert refines(marked.node_colors, plain.node_colors)


def test_directed_edge_colors():
    # distinguishable direction pair on a single edge separates its endpoints
    g = build_graph(2, [(0, 1)])
    sym = wl_refine(g, edge_colors=np.array([[5, 5]]))
    assert sym.num_classes == 1
    directed = wl_refine(g, edge_colors=np.array([[0, 1]]))
    assert directed.num_classes == 2


def test_directed_colors_on_shuffled_multi_component_graph():
    # Edges given as (2,1), (4,3), (1,0) become canonical edges
    # e0 = (1,2), e1 = (3,4), e2 = (0,1); node 5 is isolated. Column 0 of a
    # color is seen from the smaller endpoint, column 1 from the larger:
    # node 0 sees (nbr 1, color 1); node 1 sees (nbr 2, 0) and (nbr 0, 0);
    # node 2 sees (nbr 1, 0); node 3 sees (nbr 4, 0); node 4 sees (nbr 3, 1);
    # node 5 sees nothing.
    # Round 1, signatures (own color, sorted (nbr color, edge color)):
    #   0: (0, [(0,1)])  1: (0, [(0,0),(0,0)])  2: (0, [(0,0)])
    #   3: (0, [(0,0)])  4: (0, [(0,1)])        5: (0, [])
    #   -> first-seen ids [0, 1, 2, 2, 0, 3]
    # Round 2:
    #   0: (0, [(1,1)])  1: (1, [(0,0),(2,0)])  2: (2, [(1,0)])
    #   3: (2, [(0,0)])  4: (0, [(2,1)])        5: (3, [])
    #   -> all distinct [0, 1, 2, 3, 4, 5]; round 3 changes nothing.
    g = build_graph(6, [(2, 1), (4, 3), (1, 0)])
    colors = np.array([[0, 0], [0, 1], [1, 0]])
    coloring = wl_refine(g, edge_colors=colors)
    assert [h.tolist() for h in coloring.history] == [[0] * 6,
                                                      [0, 1, 2, 2, 0, 3],
                                                      [0, 1, 2, 3, 4, 5]]
    assert coloring.rounds_to_stabilize == 2
    capped = wl_refine(g, edge_colors=colors, max_rounds=1)
    assert capped.node_colors.tolist() == [0, 1, 2, 2, 0, 3]
    assert capped.rounds_to_stabilize is None


def test_max_rounds_caps_refinement():
    g = build_path(6)
    capped = wl_refine(g, max_rounds=1)
    full = wl_refine(g)
    assert len(capped.history) == 2
    assert capped.num_classes <= full.num_classes
    assert capped.colors_after(0).tolist() == [0] * 6


def test_quantize_scalars():
    ids = quantize_edge_values(np.array([1.0, 2.0, 1.0 + 1e-12, 2.0 + 5e-10]),
                               tolerance=1e-9)
    assert ids[0] == ids[2]
    assert ids[1] == ids[3]
    assert ids[0] != ids[1]


def test_quantize_is_stable_under_tiny_perturbation():
    rng = np.random.default_rng(0)
    base = rng.uniform(0.0, 3.0, 40).round(3)  # well-separated values
    noisy = base + rng.uniform(-1e-12, 1e-12, 40)
    assert np.array_equal(quantize_edge_values(base, 1e-9),
                          quantize_edge_values(noisy, 1e-9))


def test_quantize_vectors_per_column():
    vals = np.array([[1.0, 5.0], [1.0 + 1e-12, 7.0], [3.0, 5.0]])
    ids = quantize_edge_values(vals, 1e-9)
    assert ids.shape == (3, 2)
    assert ids[0, 0] == ids[1, 0]
    assert ids[0, 1] == ids[2, 1]
    assert ids[0, 1] != ids[1, 1]


def test_quantize_validation():
    with pytest.raises(ValueError):
        quantize_edge_values(np.array([1.0]), tolerance=0.0)


def test_refines_predicate():
    assert refines(np.array([0, 1, 2]), np.array([0, 0, 1]))
    assert not refines(np.array([0, 0, 1]), np.array([0, 1, 1]))


def test_expressivity_report_witness():
    report = expressivity_report(witness_graph())
    assert report["plain"].num_classes == 1
    for name in ("er", "ht", "embedding"):
        assert report[name].num_classes == 3
        assert report[name].class_sizes == [4, 2, 2]
        assert report[name].strictly_refines_plain
    doc = report.to_dict()
    assert doc["er"]["num_classes"] == 3


def test_expressivity_augmented_classes_match_orbits():
    g = witness_graph()
    orbits = automorphism_orbits(g)
    report = expressivity_report(g)
    for name in ("er", "ht", "embedding"):
        colors = report[name].node_colors
        # same partition as the orbits: refines both ways
        assert refines(colors, orbits) and refines(orbits, colors)


def test_augmented_always_refines_plain_on_random_corpus(corpus_small):
    for g in corpus_small[:8]:
        report = expressivity_report(g)
        plain = report["plain"].node_colors
        for name in ("er", "ht", "embedding"):
            assert refines(report[name].node_colors, plain)


def test_counterexample_local_blindness_one_k():
    k = 2
    cycle, broken = counterexample_pair(k)
    union, offset = disjoint_union(cycle, broken)
    coloring = wl_refine(union, max_rounds=k)
    colors_cycle = coloring.node_colors[:offset]
    colors_broken = coloring.node_colors[offset:]
    hop = spd_bellman_ford(cycle, 0)
    near = np.flatnonzero(hop <= k)
    assert np.array_equal(colors_cycle[near], colors_broken[near])
