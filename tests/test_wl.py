"""Color refinement, quantization, and the expressivity report."""

import numpy as np
import pytest

from affinity import wl
from affinity.graph import build_graph
from affinity.measures import AffinityTable, _closed_form
from affinity.oracle import (build_cycle, build_path, counterexample_pair,
                             witness_graph)
from affinity.solvers import dense_pseudoinverse
from oracles import (automorphism_orbits, color_refinement, disjoint_union,
                     spd_bellman_ford)
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


def test_discrete_start_with_edge_colors_is_stable_and_still_validated():
    g = build_cycle(5)
    start = np.array([4, 0, 3, 1, 2])
    flat = np.array([0, 1, 0, 1, 2])
    for edge_colors in (flat, np.column_stack([flat, flat[::-1]])):
        coloring = wl_refine(g, start, edge_colors)
        assert [c.tolist() for c in coloring.history] == [[0, 1, 2, 3, 4]]
        assert coloring.rounds_to_stabilize == 0
        # no round may run, so the cap is hit before stability is seen
        assert wl_refine(g, start, edge_colors,
                         max_rounds=0).rounds_to_stabilize is None
    for bad in (np.zeros(4), np.zeros((5, 3)), np.zeros((2, 5))):
        with pytest.raises(ValueError, match="edge colors must have shape"):
            wl_refine(g, start, bad)


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


def test_real_valued_edge_colors_are_compared_exactly():
    # 0.2 and 0.7 are two colors, as 0 and 1 are; truncated to ints they
    # would be one, and the path's reflection would survive
    g = build_path(4)
    real = wl_refine(g, edge_colors=np.array([0.2, 0.7, 0.7]))
    assert real.node_colors.tolist() == [0, 1, 2, 3]
    assert real.node_colors.tolist() == \
        wl_refine(g, edge_colors=np.array([0, 1, 1])).node_colors.tolist()


def _random_graphs(count: int, seed: int) -> list:
    """Seeded random graphs, often disconnected and with isolated nodes."""
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(count):
        n = int(rng.integers(1, 30))
        pairs = rng.integers(0, n, (int(rng.integers(0, 2 * n + 1)), 2))
        graphs.append(build_graph(n, pairs[pairs[:, 0] != pairs[:, 1]]))
    return graphs


EDGE_COLORINGS = {
    "none": lambda rng, m: None,
    "flat": lambda rng, m: rng.integers(0, 3, m),
    "directional": lambda rng, m: rng.integers(0, 2, (m, 2)),
    "negative_and_huge": lambda rng, m: rng.choice(
        np.array([-(2 ** 50), -3, 0, 2 ** 40 + 1, 2 ** 62]), (m, 2)),
    "real": lambda rng, m: rng.choice(np.array([0.2, 0.7, 0.75]), m),
}


@pytest.mark.parametrize("kind", sorted(EDGE_COLORINGS))
def test_wl_refine_matches_the_refinement_oracle(kind):
    rng = np.random.default_rng(sorted(EDGE_COLORINGS).index(kind))
    capped_on_discrete = 0
    for i, g in enumerate(_random_graphs(40, seed=7)):
        ec = EDGE_COLORINGS[kind](rng, g.num_edges)
        initial = rng.integers(-2, 3, g.num_nodes) if i % 2 else None
        history, _ = color_refinement(g, initial, ec)
        discrete = len(set(history[-1])) == g.num_nodes
        # every cap up to one past stability, the discrete round's included
        for cap in [None, *range(len(history) + 1)]:
            want, want_rounds = color_refinement(g, initial, ec, cap)
            coloring = wl_refine(g, initial, ec, max_rounds=cap)
            assert [h.tolist() for h in coloring.history] == want
            assert coloring.node_colors.tolist() == want[-1]
            assert coloring.rounds_to_stabilize == want_rounds
            capped_on_discrete += discrete and cap == len(history) - 1 > 0
    assert capped_on_discrete >= 5


def _er_apart_from_embedding():
    # two lone edges whose resistances 1 and 1 + 1.5e-9 are more than the
    # tolerance apart, while their square roots are not
    return build_graph(4, [(0, 1, 1.0), (2, 3, 1.0 / (1.0 + 1.5e-9))])


def test_expressivity_variants_match_the_refinement_oracle(corpus_small):
    graphs = [*corpus_small[:8], witness_graph(), *counterexample_pair(3),
              *_random_graphs(10, seed=8), _er_apart_from_embedding()]
    for g in graphs:
        res, forth, back = _closed_form(g, dense_pseudoinverse(g),
                                        g.edge_u, g.edge_v)
        ht_ids = quantize_edge_values(np.concatenate([forth, back]))
        edge_ids = {"plain": None, "er": quantize_edge_values(res),
                    "ht": ht_ids.reshape(2, -1).T,
                    "embedding": quantize_edge_values(np.sqrt(res))}
        report = expressivity_report(g).to_dict()
        plain = color_refinement(g)[0][-1]
        for name, ids in edge_ids.items():
            colors = color_refinement(g, edge_colors=ids)[0][-1]
            assert report[name] == {
                "num_classes": len(set(colors)),
                "class_sizes": sorted(np.bincount(colors).tolist(),
                                      reverse=True),
                "strictly_refines_plain":
                    len(set(zip(colors, plain))) == len(set(colors))
                    > len(set(plain)),
                "node_colors": colors}


def test_expressivity_report_refines_each_distinct_edge_coloring_once(
        monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return wl_refine(*args, **kwargs)

    monkeypatch.setattr(wl, "wl_refine", counting)
    # er and embedding ids agree on the witness: plain, er and ht refine
    report = expressivity_report(witness_graph())
    assert len(calls) == 3
    assert report["embedding"].node_colors is report["er"].node_colors
    calls.clear()
    report = expressivity_report(_er_apart_from_embedding())
    assert len(calls) == 4
    assert [report[name].num_classes
            for name in ("plain", "er", "ht", "embedding")] == [1, 2, 1, 1]


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


def test_quantize_repeated_infinities_share_ids_without_a_warning():
    # inf - inf is NaN: the gap between equal infinities must not warn,
    # which filterwarnings = error would turn into a failure
    inf = float("inf")
    values = np.array([inf, 1.0, -inf, inf, 1.0 + 1e-12, -inf, 2.0])
    ids = quantize_edge_values(values, 1e-9)
    assert ids.tolist() == [3, 1, 0, 3, 1, 0, 2]
    assert quantize_edge_values(np.full((3, 2), inf), 1e-9).tolist() \
        == [[0, 0]] * 3


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
    # a NaN tolerance put every value in one class
    for tolerance in (float("nan"), float("inf"), -1e-9):
        with pytest.raises(ValueError, match="tolerance"):
            quantize_edge_values(np.array([1.0, 2.0, 3.0]), tolerance)
    # a NaN value joined its neighbour's class: [1, nan, 3] gave [0, 1, 1]
    for values in ([1.0, float("nan"), 3.0], [[1.0, 2.0], [float("nan"), 2.0]]):
        with pytest.raises(ValueError, match="NaN"):
            quantize_edge_values(np.array(values))


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


def test_expressivity_report_reads_edges_without_a_table(monkeypatch):
    def refuse(cls, graph):
        raise AssertionError("expressivity_report built an all-pairs table")

    monkeypatch.setattr(AffinityTable, "exact", classmethod(refuse))
    report = expressivity_report(witness_graph())
    assert [report[name].num_classes
            for name in ("plain", "er", "ht", "embedding")] == [1, 3, 3, 3]


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
