"""Graph construction, validation, parsing, and the Laplacian."""

import json

import numpy as np
import pytest

from affinity.graph import (CrossComponentError, GraphInputError,
                            build_graph, graph_from_edgelist, graph_from_json,
                            graph_to_json_dict, load_graph,
                            stationary_distribution)
from oracles import disjoint_union
from affinity.solvers import dense_laplacian, laplacian_csr


def test_triangle_basics():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.num_edges == 3
    assert g.total_weight == 3.0
    assert np.array_equal(g.degrees, [2.0, 2.0, 2.0])
    assert g.num_components == 1


def test_path_degrees_and_mass():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert np.array_equal(g.degrees, [1.0, 2.0, 1.0])
    assert g.total_weight == 2.0


def test_weights_default_to_one():
    g = build_graph(2, [(0, 1)])
    assert g.edge_w.tolist() == [1.0]


def test_parallel_edges_merge_by_summing():
    g = build_graph(2, [(0, 1, 1.0), (1, 0, 2.0)])
    assert g.num_edges == 1
    assert g.edge_w.tolist() == [3.0]
    assert g.degrees.tolist() == [3.0, 3.0]


def test_merge_keeps_first_occurrence_order():
    g = build_graph(4, [(2, 3, 1.0), (0, 1, 1.0), (3, 2, 5.0)])
    assert list(zip(g.edge_u.tolist(), g.edge_v.tolist())) == [(2, 3), (0, 1)]
    assert g.edge_w.tolist() == [6.0, 1.0]


def test_merge_is_linear_in_weights():
    a = build_graph(3, [(0, 1, 0.25), (0, 1, 0.75), (1, 2, 2.0)])
    b = build_graph(3, [(0, 1, 1.0), (1, 2, 2.0)])
    assert np.allclose(a.edge_w, b.edge_w)
    assert np.allclose(dense_laplacian(a), dense_laplacian(b))


def test_self_loop_rejected():
    with pytest.raises(GraphInputError, match="self-loop"):
        build_graph(3, [(0, 0)])


def test_out_of_range_endpoint_rejected():
    with pytest.raises(GraphInputError, match="outside"):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphInputError, match="outside"):
        build_graph(3, [(-1, 2)])


@pytest.mark.parametrize("edges, named", [
    ([(0, 1e20)], "0, 100000000000000000000"),
    ([(0, 2 ** 63)], "0, 9223372036854775808"),
    ([(-2 ** 64, 1)], "-18446744073709551616, 1"),
    (np.array([[0, 2 ** 63]], dtype=np.uint64), "0, 9223372036854775808"),
])
def test_endpoint_beyond_int64_is_named_not_wrapped(edges, named):
    # a cast to int64 would warn (an error under this suite's filterwarnings)
    # and report the endpoint as -9223372036854775808
    with pytest.raises(GraphInputError,
                       match=rf"^edge 0: endpoint \({named}\) outside 0..2$"):
        build_graph(3, edges)


def test_edge_list_id_beyond_int64_is_refused():
    # the id becomes the node count too; it must fail on range, not on a cast
    with pytest.raises(GraphInputError, match="outside") as info:
        graph_from_edgelist("0 99999999999999999999\n")
    assert "-9223372036854775808" not in str(info.value)


HUGE = 10 ** 400  # no float64 holds it


def test_endpoint_beyond_float64_is_named_by_both_parsers():
    text = json.dumps({"num_nodes": 3, "edges": [[0, 1], [0, HUGE]]})
    with pytest.raises(GraphInputError, match=r"^edge 1: second endpoint "
                       r"has 401 digits, beyond the float64 range$"):
        graph_from_json(text)
    with pytest.raises(GraphInputError, match=r"^edge 0: first endpoint "
                       r"has 401 digits, beyond the float64 range$"):
        graph_from_edgelist(f"{HUGE} 1\n")
    # an object array holds the Python int as it is
    with pytest.raises(GraphInputError, match=r"^edge 0: weight has 401"):
        build_graph(3, np.array([[0, 1, HUGE]], dtype=object))


@pytest.mark.parametrize("weight", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_weights_rejected(weight):
    with pytest.raises(GraphInputError, match="finite and > 0"):
        build_graph(2, [(0, 1, weight)])


def test_non_integer_endpoint_rejected():
    with pytest.raises(GraphInputError, match="not an integer"):
        build_graph(3, np.array([[0.5, 1.0, 1.0]]))
    # bool is an int to Python and numpy; none of these may build a graph
    with pytest.raises(GraphInputError, match="num_nodes"):
        build_graph(True, [])
    with pytest.raises(GraphInputError, match="edge 1: .* boolean"):
        build_graph(3, [(0, 1), (True, 2)])
    with pytest.raises(GraphInputError, match="edge 0: .* boolean"):
        build_graph(3, [(0, 2, True)])
    with pytest.raises(GraphInputError, match="boolean"):
        build_graph(3, [(0, np.bool_(True))])
    with pytest.raises(GraphInputError, match="numeric"):
        build_graph(2, np.array([[True, False]]))
    # only numbers, checked per item, whichever entry point built the list
    with pytest.raises(GraphInputError, match="edge 0: '1' .* not a number"):
        build_graph(2, [(0, "1")])
    with pytest.raises(GraphInputError, match="edge 1: 'a' .* not a number"):
        build_graph(2, [(0, 1), ("a", 1)])
    with pytest.raises(GraphInputError, match="edge 0: None .* not a number"):
        build_graph(2, [(0, 1, None)])


def test_components_two_islands():
    g = build_graph(5, [(0, 1), (2, 3)])
    assert g.num_components == 3  # {0,1}, {2,3}, {4}
    assert g.same_component(0, 1)
    assert not g.same_component(1, 2)
    assert g.component_nodes(g.component_of[4]).tolist() == [4]


def test_component_labels_follow_lowest_node():
    # four interleaved components plus isolated nodes 2, 7 and 10, with the
    # edges given in reversed order; labels count components by lowest node
    edges = [(0, 5), (5, 9), (1, 4), (4, 11), (3, 6), (6, 12), (8, 13)]
    g = build_graph(14, edges[::-1])
    assert g.num_components == 7
    assert g.component_of.tolist() == \
        [0, 1, 2, 3, 1, 0, 3, 4, 5, 0, 6, 1, 3, 5]


def test_apply_laplacian_hand_value():
    g = build_graph(3, [(0, 1), (1, 2)])
    # L (1,0,0) = first column of L = (1, -1, 0)
    assert np.allclose(laplacian_csr(g) @ np.array([1.0, 0, 0]), [1, -1, 0])


def test_laplacian_is_built_with_the_graph():
    g = build_graph(4, [(0, 1, 2.0), (1, 2)])
    assert laplacian_csr(g) is g.laplacian
    assert np.array_equal(g.laplacian.toarray(), [[2, -2, 0, 0],
                                                  [-2, 3, -1, 0],
                                                  [0, -1, 1, 0],
                                                  [0, 0, 0, 0]])
    # the isolated node keeps an explicit zero on the diagonal
    assert g.laplacian.nnz == 8
    assert g.laplacian.has_sorted_indices


def test_laplacian_psd_on_corpus(corpus_small):
    for g in corpus_small[:10]:
        eigvals = np.linalg.eigvalsh(dense_laplacian(g))
        assert eigvals.min() >= -1e-12


def test_constant_vector_in_nullspace(corpus_small):
    for g in corpus_small[:6]:
        assert np.allclose(laplacian_csr(g) @ np.ones(g.num_nodes), 0,
                           atol=1e-12)


def test_stationary_distribution_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    pi = stationary_distribution(g)
    assert np.allclose(pi, [0.25, 0.5, 0.25])
    assert abs(pi.sum() - 1.0) <= 1e-12


def test_stationary_distribution_sums_to_one(corpus_small):
    for g in corpus_small:
        assert abs(stationary_distribution(g).sum() - 1.0) <= 1e-12


def test_stationary_distribution_needs_edges():
    with pytest.raises(GraphInputError):
        stationary_distribution(build_graph(3, []))


def test_json_round_trip():
    g = build_graph(3, [(0, 1, 2.5), (1, 2)])
    doc = graph_to_json_dict(g)
    g2 = graph_from_json(json.dumps(doc))
    assert np.array_equal(g.edge_u, g2.edge_u)
    assert np.array_equal(g.edge_w, g2.edge_w)


def test_json_missing_keys():
    with pytest.raises(GraphInputError, match="num_nodes"):
        graph_from_json('{"edges": []}')
    with pytest.raises(GraphInputError, match="edges"):
        graph_from_json('{"num_nodes": 3}')


def test_json_bad_edge_entry():
    with pytest.raises(GraphInputError, match="edge 1"):
        graph_from_json('{"num_nodes": 3, "edges": [[0, 1], [0]]}')
    with pytest.raises(GraphInputError, match="invalid JSON"):
        graph_from_json("{nope")


def test_edgelist_parsing():
    text = "# comment\n0 1\n1 2 2.5\n\n"
    g = graph_from_edgelist(text)
    assert g.num_nodes == 3
    assert g.edge_w.tolist() == [1.0, 2.5]


def test_edgelist_errors_carry_line_numbers():
    with pytest.raises(GraphInputError, match="line 2"):
        graph_from_edgelist("0 1\n0 1 2 3\n")
    with pytest.raises(GraphInputError, match="line 1"):
        graph_from_edgelist("a b\n")
    with pytest.raises(GraphInputError, match="line 3"):
        graph_from_edgelist("0 1\n1 2\n2 3 x\n")


def test_load_graph_dispatches_on_suffix(tmp_path):
    j = tmp_path / "g.json"
    j.write_text('{"num_nodes": 2, "edges": [[0, 1, 3.0]]}')
    t = tmp_path / "g.txt"
    t.write_text("0 1 3.0\n")
    assert load_graph(j).edge_w.tolist() == [3.0]
    assert load_graph(t).edge_w.tolist() == [3.0]


def test_disjoint_union_offsets():
    a = build_graph(3, [(0, 1), (1, 2)])
    b = build_graph(2, [(0, 1)])
    union, offset = disjoint_union(a, b)
    assert offset == 3
    assert union.num_nodes == 5
    assert union.num_components == 2
    assert not union.same_component(0, 3)


def test_cross_component_error_is_a_value_error():
    assert issubclass(CrossComponentError, ValueError)
