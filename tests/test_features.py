"""Feature assembly, serialization round-trips, and rotation replay."""

import csv
import errno
import hashlib
import io
import json
import os
import tracemalloc
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import affinity.embeddings as embeddings
import affinity.features as features
from affinity.embeddings import jl_dimension
from affinity.features import (FAMILIES, FeatureSet, assemble_features,
                               augment_with_rotation, export_features,
                               graph_digest, load_features)
from affinity.graph import GraphInputError, build_graph
from affinity.measures import effective_resistance
from affinity.oracle import (build_cycle, grounded_hitting_times,
                             random_connected_graph)
from oracles import build_grid, pinv_resistances


def _path3():
    return build_graph(3, [(0, 1), (1, 2)])


def test_assemble_exact_edge_er():
    g = _path3()
    fs = assemble_features(g, ["edge_er"])
    assert fs.manifest["kind"] == "exact"
    assert np.allclose(fs.edge_er, [1.0, 1.0], atol=1e-10)
    assert fs.edge_index.tolist() == [[0, 1], [1, 2]]


def test_assemble_exact_edge_ht():
    g = _path3()
    fs = assemble_features(g, ["edge_ht"])
    # one step from an endpoint to the middle, three steps back out
    assert np.allclose(fs.edge_ht, [[1.0, 3.0], [3.0, 1.0]], atol=1e-9)
    hit = grounded_hitting_times(g)
    for (u, v), (huv, hvu) in zip(fs.edge_index.tolist(), fs.edge_ht.tolist()):
        assert abs(huv - hit[u, v]) <= 1e-9
        assert abs(hvu - hit[v, u]) <= 1e-9


def test_exact_edge_measures_never_build_the_exact_embedding(monkeypatch):
    g = random_connected_graph(24, 3.0, (0.5, 2.0), seed=1)
    calls = []
    real = features.exact_embedding

    def counting(graph):
        calls.append(graph)
        return real(graph)

    monkeypatch.setattr(features, "exact_embedding", counting)
    for families in (["edge_er"], ["edge_ht"], ["edge_er", "edge_ht"]):
        fs = assemble_features(g, families)
        assert fs.manifest["kind"] == "exact"
        assert fs.manifest["embedding_dim"] == g.num_edges
    assert calls == []
    assemble_features(g, ["edge_er", "node_embedding"])
    assert calls == [g]


def test_exact_edge_measures_match_oracles_across_components():
    # nodes 0-5 a weighted random graph, 6 isolated, 7-11 a unit 5-cycle
    heavy = random_connected_graph(6, 3.0, (0.5, 3.0), seed=11)
    cycle = build_cycle(5)
    edges = np.concatenate([
        np.column_stack([heavy.edge_u, heavy.edge_v, heavy.edge_w]),
        np.column_stack([cycle.edge_u + 7, cycle.edge_v + 7,
                         cycle.edge_w])])
    g = build_graph(12, edges)
    assert g.num_components == 3 and g.degrees[6] == 0.0
    fs = assemble_features(g, ["edge_er", "edge_ht"])
    res = pinv_resistances(g)
    hit = grounded_hitting_times(g)
    u, v = g.edge_u, g.edge_v
    assert np.allclose(fs.edge_er, res[u, v], rtol=1e-10, atol=0)
    assert np.allclose(fs.edge_ht[:, 0], hit[u, v], rtol=1e-10, atol=0)
    assert np.allclose(fs.edge_ht[:, 1], hit[v, u], rtol=1e-10, atol=0)


def test_assemble_all_families_consistent():
    g = random_connected_graph(24, 3.0, (0.5, 2.0), seed=1)
    fs = assemble_features(g, list(FAMILIES))
    assert fs.node_embedding.shape == (24, g.num_edges)
    assert fs.edge_embedding.shape == (g.num_edges, g.num_edges)
    # edge embedding rows are row differences of the node embedding
    diffs = fs.node_embedding[g.edge_u] - fs.node_embedding[g.edge_v]
    assert np.allclose(fs.edge_embedding, diffs, atol=1e-15)
    # edge_er equals the squared norm of those rows and the exact resistance
    assert np.allclose(fs.edge_er,
                       np.einsum("ij,ij->i", diffs, diffs), atol=1e-12)
    u, v = int(g.edge_u[3]), int(g.edge_v[3])
    assert abs(fs.edge_er[3] - effective_resistance(g, u, v)) <= 1e-8


def test_assemble_sketched_metadata():
    g = random_connected_graph(30, 3.0, seed=2)
    fs = assemble_features(g, ["edge_er", "node_embedding"],
                           epsilon=0.25, seed=9)
    assert fs.manifest["kind"] == "sketched"
    assert fs.manifest["epsilon"] == 0.25
    assert fs.manifest["seed"] == 9
    assert fs.manifest["embedding_dim"] == fs.node_embedding.shape[1]
    assert fs.manifest["graph_sha256"] == graph_digest(g)


def test_manifest_names_the_projection_and_the_solve_route(pcg_route):
    assert features.FORMAT_VERSION == 8
    exact = assemble_features(_path3(), ["edge_er"]).manifest
    assert exact["format_version"] == 8
    assert exact["projection"] is None and exact["solver"]["route"] is None
    small = random_connected_graph(30, 3.0, seed=2)
    for route, g in (("sparse LU", small), ("sparse LU", build_grid(25, 25)),
                     ("PCG", random_connected_graph(600, 3.0, seed=8))):
        manifest = assemble_features(g, ["edge_er"], epsilon=0.5,
                                     seed=1).manifest
        assert manifest["projection"] == "rademacher-philox4x64"
        assert manifest["solver"] == {"route": route, "rel_tolerance": 1e-8,
                                      "max_iterations": None}
    # the route is read where the solve reads it, so the fixture steers both
    pcg_route()
    manifest = assemble_features(small, ["edge_er"], epsilon=0.5,
                                 seed=1).manifest
    assert manifest["solver"]["route"] == "PCG"


def test_assemble_sketched_is_deterministic():
    g = random_connected_graph(20, 3.0, seed=3)
    a = assemble_features(g, ["node_embedding"], epsilon=0.3, seed=4)
    b = assemble_features(g, ["node_embedding"], epsilon=0.3, seed=4)
    assert np.array_equal(a.node_embedding, b.node_embedding)


def _block_graphs():
    """A connected weighted graph, and one with a weighted triangle, an
    isolated node and a 5-node component."""
    return [random_connected_graph(47, 3.3, (0.5, 2.0), seed=4),
            build_graph(9, [(0, 1, 2.0), (1, 2), (2, 0, 0.5), (4, 5), (5, 6),
                            (6, 7, 3.0), (7, 8), (8, 4), (5, 8)])]


def _edge_family_sets(epsilon):
    """Feature sets of every family on the block graphs, plain, and the
    first one rotated."""
    sets = [assemble_features(g, list(FAMILIES), epsilon=epsilon, seed=5)
            for g in _block_graphs()]
    return sets + [augment_with_rotation(sets[0], 6)]


@pytest.mark.parametrize("epsilon", [None, 0.5], ids=["exact", "sketched"])
def test_row_blocks_of_a_few_entries_change_no_bit(epsilon, monkeypatch,
                                                   tmp_path):
    expected = _edge_family_sets(epsilon)
    for i, fs in enumerate(expected):
        for fmt in ("csv", "binary"):
            export_features(fs, fmt, tmp_path / "default" / f"{fmt}{i}")
    k = expected[0].manifest["embedding_dim"]
    m = expected[0].edge_index.shape[0]
    assert m % 5 != 0
    for entries in (1, 5 * k + 3):  # blocks of 1 or 5 rows of the edge rows
        monkeypatch.setattr(embeddings, "_BLOCK_ENTRIES", entries)
        for i, (want, got) in enumerate(zip(expected,
                                            _edge_family_sets(epsilon))):
            assert got.family_arrays().keys() == want.family_arrays().keys()
            for name, arr in want.family_arrays().items():
                assert np.array_equal(getattr(got, name), arr), name
            for fmt in ("csv", "binary"):
                out = tmp_path / str(entries) / f"{fmt}{i}"
                for file in export_features(got, fmt, out):
                    base = tmp_path / "default" / f"{fmt}{i}" / file.name
                    assert file.read_bytes() == base.read_bytes(), file
        monkeypatch.undo()


def test_sketched_edge_features_match_numpy_formulas():
    for g in _block_graphs():
        fs = assemble_features(g, list(FAMILIES), epsilon=0.5, seed=5)
        vecs = fs.node_embedding
        u, v = g.edge_u, g.edge_v
        diffs = vecs[u] - vecs[v]
        assert np.array_equal(fs.edge_embedding, diffs)
        np.testing.assert_allclose(fs.edge_er, np.sum(diffs * diffs, axis=1),
                                   rtol=1e-12, atol=0)
        # H(u, v) = 2M <r_v - r_u, r_v - p>, with M the edge mass of the
        # pair's component and p the degree-weighted mean of its rows
        for label in range(g.num_components):
            deg = np.where(g.component_of == label, g.degrees, 0.0)
            on = g.component_of[u] == label
            if not on.any():
                continue
            two_mass = deg.sum()
            p = deg @ vecs / two_mass
            forth = two_mass * np.sum((vecs[v] - vecs[u]) * (vecs[v] - p),
                                      axis=1)
            back = two_mass * np.sum((vecs[u] - vecs[v]) * (vecs[u] - p),
                                     axis=1)
            np.testing.assert_allclose(fs.edge_ht[on], np.column_stack(
                [forth, back])[on], rtol=1e-12, atol=0)


def test_sketched_edge_features_hold_no_edge_by_dim_temporary():
    # n = 400 keeps the sketch on the dense route; the edge rows would be
    # 3 (m, k) arrays if gathered whole
    g = random_connected_graph(400, 100.0, seed=12)
    k = jl_dimension(g.num_nodes, g.num_edges, 0.5)
    rows_bytes = 8 * g.num_edges * k
    assert rows_bytes > 8 * 2 ** 22
    tracemalloc.start()
    try:
        fs = assemble_features(g, ["edge_er", "edge_ht"], epsilon=0.5, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert fs.edge_ht.shape == (g.num_edges, 2)
    assert peak < rows_bytes / 2, (peak, rows_bytes)


def test_binary_export_writes_the_table_without_copying_it(tmp_path):
    table = np.random.default_rng(0).standard_normal((20_000, 200))
    fs = FeatureSet(num_nodes=2, edge_index=np.zeros((20_000, 2), np.int64),
                    manifest={"families": ["edge_embedding"]},
                    edge_embedding=table)
    tracemalloc.start()
    try:
        export_features(fs, "binary", tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes / 2, (peak, table.nbytes)
    blob = (tmp_path / "edge_embedding.bin").read_bytes()
    assert blob[16:] == table.tobytes()


def test_assemble_validation():
    g = _path3()
    with pytest.raises(ValueError, match="unknown"):
        assemble_features(g, ["nope"])
    with pytest.raises(ValueError, match="no feature"):
        assemble_features(g, [])
    # one node over the exact cap; the cap is checked before any inverse
    big = build_graph(2049, [(i, i + 1) for i in range(2048)])
    with pytest.raises(ValueError, match="2048 nodes.*epsilon"):
        assemble_features(big, ["edge_er"])


def test_disconnected_graph_features_match_components():
    # two disjoint 3-paths: each keeps the standalone path's hitting times
    twin = build_graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    fs_twin = assemble_features(twin, ["edge_ht"])
    path_ht = [[1.0, 3.0], [3.0, 1.0]]
    assert np.allclose(fs_twin.edge_ht, path_ht + path_ht, atol=1e-9)


def test_rotation_preserves_distance_families():
    g = random_connected_graph(16, 3.0, seed=6)
    fs = assemble_features(g, list(FAMILIES))
    rotated = augment_with_rotation(fs, rotation_seed=11)
    assert rotated.manifest["rotation_seeds"] == [11]
    # distance-derived families untouched, embeddings actually moved
    assert np.array_equal(rotated.edge_er, fs.edge_er)
    assert np.array_equal(rotated.edge_ht, fs.edge_ht)
    assert not np.allclose(rotated.node_embedding, fs.node_embedding)
    # but resistances recomputed from rotated rows are unchanged
    diffs = rotated.node_embedding[g.edge_u] - rotated.node_embedding[g.edge_v]
    assert np.allclose(np.einsum("ij,ij->i", diffs, diffs), fs.edge_er,
                       atol=1e-9)


def test_rotation_replay_bit_for_bit():
    g = random_connected_graph(16, 3.0, seed=6)
    first = augment_with_rotation(
        assemble_features(g, ["node_embedding"]), rotation_seed=21)
    second = augment_with_rotation(
        assemble_features(g, ["node_embedding"]), rotation_seed=21)
    assert np.array_equal(first.node_embedding, second.node_embedding)


def test_rotation_requires_embedding_family():
    fs = assemble_features(_path3(), ["edge_er"])
    with pytest.raises(ValueError, match="rotate"):
        augment_with_rotation(fs, 0)


@pytest.mark.parametrize("epsilon", [None, 0.5], ids=["exact", "sketched"])
def test_rotated_edge_rows_are_differences_of_rotated_node_rows(epsilon):
    for g in _block_graphs():
        fs = assemble_features(g, list(FAMILIES), epsilon=epsilon, seed=5)
        rot = augment_with_rotation(fs, 9)
        u, v = g.edge_u, g.edge_v
        # the manifest's convention holds bit for bit after the rotation
        assert np.array_equal(rot.edge_embedding,
                              rot.node_embedding[u] - rot.node_embedding[v])
        # and the rows are the unrotated edge rows rotated, to rounding
        k = fs.node_embedding.shape[1]
        direct = fs.edge_embedding @ embeddings.random_rotation(k, 9).T
        gap = np.abs(rot.edge_embedding - direct).max()
        assert gap <= 1e-13 * np.abs(direct).max(), gap


def test_edge_embedding_alone_rotates_in_one_product():
    g = _block_graphs()[0]
    for epsilon in (None, 0.5):
        fs = assemble_features(g, ["edge_embedding"], epsilon=epsilon, seed=5)
        rot = augment_with_rotation(fs, 9)
        k = fs.edge_embedding.shape[1]
        assert np.array_equal(
            rot.edge_embedding,
            fs.edge_embedding @ embeddings.random_rotation(k, 9).T)
        assert rot.manifest["rotation_seeds"] == [9]


def test_rotated_edge_rows_keep_resistances_on_a_weight_spread_path():
    # weights 10^U(-3, 3) give node rows far larger than the edge rows, so
    # differencing rotated node rows loses the most digits here
    n = 5000
    w = 10.0 ** np.random.default_rng(26).uniform(-3, 3, n - 1)
    g = build_graph(n, np.column_stack([np.arange(n - 1), np.arange(1, n), w]))
    fs = augment_with_rotation(
        assemble_features(g, ["edge_er", "node_embedding", "edge_embedding"],
                          epsilon=0.5, seed=3), 4)
    norms = np.einsum("ij,ij->i", fs.edge_embedding, fs.edge_embedding)
    np.testing.assert_allclose(norms, fs.edge_er, rtol=1e-10, atol=0)


def test_embedding_without_columns_rotates_to_itself():
    fs = assemble_features(build_graph(3, []), list(FAMILIES))
    rot = augment_with_rotation(fs, 5)
    assert rot.manifest["rotation_seeds"] == [5]
    assert rot.node_embedding.shape == (3, 0)
    assert rot.edge_embedding.shape == (0, 0)
    assert rot.edge_er.shape == (0,) and rot.edge_ht.shape == (0, 2)
    with pytest.raises(ValueError, match="seed"):
        augment_with_rotation(fs, -1)
    # no edges but columns: the block loop writes no row
    nodes = np.arange(12.0).reshape(3, 4)
    bare = FeatureSet(num_nodes=3, edge_index=np.zeros((0, 2), np.int64),
                      manifest={}, node_embedding=nodes,
                      edge_embedding=np.empty((0, 4)))
    rot = augment_with_rotation(bare, 5)
    assert rot.edge_embedding.shape == (0, 4)
    assert rot.manifest["rotation_seeds"] == [5]


@pytest.mark.parametrize("fmt", ["json", "csv", "binary"])
def test_round_trip(fmt, tmp_path):
    g = random_connected_graph(12, 3.0, (0.5, 2.0), seed=7)
    # every family, a node-only set whose export carries no edge family, and
    # an exact set of a graph without edges (empty rows and columns)
    cases = [(g, list(FAMILIES), 0.4), (g, ["node_embedding"], 0.4),
             (build_graph(3, []), list(FAMILIES), None)]
    for case, (graph, families, epsilon) in enumerate(cases):
        fs = assemble_features(graph, families, epsilon=epsilon, seed=2)
        target = tmp_path / fmt / str(case)
        export_features(fs, fmt, target)
        loaded = load_features(target, fmt)
        assert loaded.manifest["graph_sha256"] == fs.manifest["graph_sha256"]
        assert loaded.edge_index.shape == fs.edge_index.shape
        assert np.array_equal(loaded.edge_index, fs.edge_index)
        for name in families:
            original = getattr(fs, name)
            restored = getattr(loaded, name)
            assert restored.shape == original.shape, name
            if fmt == "binary":
                assert np.array_equal(restored, original), name
            else:
                # decimal text path: round-trip within 1e-15 relative
                assert np.allclose(restored, original, rtol=1e-15,
                                   atol=0), name


def test_json_text_round_trip_is_exact():
    # repr-based decimal serialization round-trips float64 exactly
    g = random_connected_graph(10, 3.0, (0.5, 2.0), seed=8)
    fs = assemble_features(g, ["edge_er"])
    doc = json.loads(json.dumps({"x": fs.edge_er.tolist()}))
    assert np.array_equal(np.asarray(doc["x"]), fs.edge_er)


def _feature_sets():
    g = random_connected_graph(14, 3.0, (0.5, 2.0), seed=5)
    rotated = augment_with_rotation(
        assemble_features(g, list(FAMILIES), epsilon=0.4, seed=3), 7)
    return [rotated, assemble_features(g, ["node_embedding"], epsilon=0.4)]


def _expected_csv(features):
    """Each file of a csv export as the standard csv writer writes it."""
    expected = {"manifest.json": json.dumps(features.manifest, indent=2,
                                            sort_keys=True) + "\n"}
    tables = dict(features.family_arrays())
    if not any(name.startswith("edge_") for name in tables):
        tables["edge_index"] = np.zeros((features.edge_index.shape[0], 0))
    for name, arr in tables.items():
        rows = arr.reshape(arr.shape[0], -1)
        edge = name.startswith("edge_")
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow((["u", "v"] if edge else ["node"])
                        + [f"c{j}" for j in range(rows.shape[1])])
        for i, row in enumerate(rows):
            index = [int(x) for x in features.edge_index[i]] if edge else [i]
            writer.writerow(index + [repr(float(x)) for x in row])
        expected[f"{name}.csv"] = buf.getvalue()
    return expected


@pytest.mark.parametrize("case", [0, 1], ids=["rotated_sketch", "node_only"])
def test_text_exports_match_standard_library_writers(case, tmp_path):
    fs = _feature_sets()[case]
    expected = _expected_csv(fs)
    written = export_features(fs, "csv", tmp_path / "csv")
    assert [p.name for p in written] == list(expected)
    for name, text in expected.items():
        assert (tmp_path / "csv" / name).read_bytes() == text.encode(), name
    doc = {"manifest": fs.manifest, "edge_index": fs.edge_index.tolist(),
           "arrays": {name: arr.tolist()
                      for name, arr in fs.family_arrays().items()}}
    [json_file] = export_features(fs, "json", tmp_path / "f.json")
    assert json_file.read_text() == json.dumps(doc, indent=2,
                                               sort_keys=True) + "\n"


def _hand_built_feature_sets():
    """Feature sets the json writer must spell as the standard library does:
    non-finite and extreme floats, one-row tables, a node table without
    columns, no family at all, and the exact set of a graph without edges."""
    values = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.1])
    odd = FeatureSet(num_nodes=3, edge_index=np.array([[0, 2]]),
                     manifest={"note": "a\nb", "epsilon": np.inf},
                     edge_er=values[:1], edge_ht=values[None, 1:3],
                     node_embedding=np.zeros((3, 0)),
                     edge_embedding=values[None, :])
    bare = FeatureSet(num_nodes=0, edge_index=np.zeros((0, 2), np.int64),
                      manifest={})
    edgeless = assemble_features(build_graph(3, []), list(FAMILIES))
    return [odd, bare, edgeless]


@pytest.mark.parametrize("case", [0, 1, 2],
                         ids=["non_finite_one_row", "no_family", "edgeless"])
def test_json_writer_matches_json_dumps(case, tmp_path):
    fs = _hand_built_feature_sets()[case]
    doc = {"manifest": fs.manifest, "edge_index": fs.edge_index.tolist(),
           "arrays": {name: arr.tolist()
                      for name, arr in fs.family_arrays().items()}}
    [json_file] = export_features(fs, "json", tmp_path / "f.json")
    assert json_file.read_bytes() == (json.dumps(doc, indent=2, sort_keys=True)
                                      + "\n").encode()


def test_csv_header_only_table_loads_without_warning(tmp_path):
    fs = assemble_features(build_graph(3, []), list(FAMILIES))
    export_features(fs, "csv", tmp_path)
    assert (tmp_path / "edge_ht.csv").read_bytes() == b"u,v,c0,c1\r\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loaded = load_features(tmp_path, "csv")
    assert loaded.edge_ht.shape == (0, 2)
    assert loaded.node_embedding.shape == (3, 0)


_CSV_FAULTS = {"not_a_number": (1, lambda cells: cells[:-1] + [b"abc"]),
               "ragged_row": (2, lambda cells: cells[:-1]),
               "header_mismatch": (0, lambda cells: cells + [b"c9"])}


@pytest.mark.parametrize("fault", list(_CSV_FAULTS))
def test_broken_csv_table_names_the_file(fault, tmp_path):
    export_features(_feature_sets()[0], "csv", tmp_path)
    table = tmp_path / "edge_ht.csv"
    lines = table.read_bytes().split(b"\r\n")
    line, edit = _CSV_FAULTS[fault]
    lines[line] = b",".join(edit(lines[line].split(b",")))
    table.write_bytes(b"\r\n".join(lines))
    with pytest.raises(GraphInputError) as info:
        load_features(tmp_path, "csv")
    assert str(table) in str(info.value)


def _drop_last_row(target, fmt):
    if fmt == "json":
        doc = json.loads(target.read_text())
        doc["arrays"]["node_embedding"].pop()
        target.write_text(json.dumps(doc))
        return target
    table = target / f"node_embedding.{'bin' if fmt == 'binary' else 'csv'}"
    if fmt == "csv":
        table.write_text("".join(table.read_text().splitlines(True)[:-1]))
    else:
        blob = table.read_bytes()
        rows = int.from_bytes(blob[4:8], "little")
        cols = int.from_bytes(blob[8:12], "little")
        table.write_bytes(blob[:4] + (rows - 1).to_bytes(4, "little")
                          + blob[8:16 + (rows - 1) * cols * 8])
    return table


@pytest.mark.parametrize("fmt", ["json", "csv", "binary"])
def test_table_shorter_than_manifest_names_the_file(fmt, tmp_path):
    fs = _feature_sets()[0]
    target = tmp_path / ("f.json" if fmt == "json" else fmt)
    export_features(fs, fmt, target)
    table = _drop_last_row(target, fmt)
    with pytest.raises(GraphInputError, match=table.name):
        load_features(target, fmt)


_MANIFEST_FAULTS = [(fmt, fault) for fault in ["malformed", "not_an_object",
                                                "missing_key",
                                                "missing_num_edges"]
                    for fmt in ["json", "csv", "binary"]]
# a json export nests its manifest and arrays, which must be objects too,
# and inlines its tables, which must hold numbers
_MANIFEST_FAULTS += [("json", "manifest_not_an_object"),
                     ("json", "arrays_not_an_object"),
                     ("json", "edge_index_not_numbers"),
                     ("json", "edge_er_not_numbers")]
# the manifest names the tables: one it lists must exist, and each family it
# lists must be known (json holds a matching "bogus" table too); families
# must be a list of names, and the sizes the loader reads non-negative ints
_MANIFEST_FAULTS += [(fmt, fault) for fault in ["missing_table",
                                                "unknown_family",
                                                "families_not_a_list",
                                                "num_nodes_not_an_int",
                                                "embedding_dim_null"]
                     for fmt in ["json", "csv", "binary"]]


@pytest.mark.parametrize("fmt, fault", _MANIFEST_FAULTS,
                         ids=[f"{fmt}-{fault}" for fmt, fault in _MANIFEST_FAULTS])
def test_broken_manifest_names_the_file(fmt, fault, tmp_path):
    target = tmp_path / ("f.json" if fmt == "json" else fmt)
    export_features(_feature_sets()[0], fmt, target)
    # a json export nests its manifest; csv and binary keep it in a file
    file = target if fmt == "json" else target / "manifest.json"
    doc = json.loads(file.read_text())
    manifest = doc["manifest"] if fmt == "json" else doc
    key = None
    if fault == "malformed":
        text = file.read_text().replace('"', "'")
    elif fault == "not_an_object":
        text = json.dumps([doc])
    elif fault.endswith("_not_an_object"):
        key = fault.removesuffix("_not_an_object")
        doc[key] = [doc[key]]
        text = json.dumps(doc)
    elif fault == "edge_index_not_numbers":
        key = "edge_index"
        doc[key] = {"a": 1}
        text = json.dumps(doc)
    elif fault == "edge_er_not_numbers":
        key = "edge_er"
        doc["arrays"][key] = "abc"
        text = json.dumps(doc)
    elif fault == "missing_num_edges":
        key = "num_edges"
        del manifest[key]
        text = json.dumps(doc)
    elif fault == "missing_table":
        key = "edge_er"
        if fmt == "json":
            del doc["arrays"][key]
        else:
            next(target.glob(f"{key}.*")).unlink()
        text = json.dumps(doc)
    elif fault == "unknown_family":
        key = "bogus"
        manifest["families"].append(key)
        if fmt == "json":
            doc["arrays"][key] = doc["arrays"]["edge_embedding"]
        text = json.dumps(doc)
    elif fault in ("families_not_a_list", "num_nodes_not_an_int",
                   "embedding_dim_null"):
        key, value = {"families_not_a_list": ("families", 5),
                      "num_nodes_not_an_int": ("num_nodes", "x"),
                      "embedding_dim_null": ("embedding_dim", None)}[fault]
        manifest[key] = value
        text = json.dumps(doc)
    else:
        key = "manifest" if fmt == "json" else "families"
        del doc[key]
        text = json.dumps(doc)
    file.write_text(text)
    with pytest.raises(GraphInputError) as info:
        load_features(target, fmt)
    assert str(file) in str(info.value)
    if key is not None:
        assert repr(key) in str(info.value)


_EDGE_INDEX_FAULTS = [(fmt, fault) for fault in ["non_integral", "nan", "inf",
                                                   "negative", "too_large"]
                      for fmt in ["json", "csv", "binary"]]


@pytest.mark.parametrize("fmt, fault", _EDGE_INDEX_FAULTS,
                         ids=[f"{fmt}-{fault}" for fmt, fault
                              in _EDGE_INDEX_FAULTS])
def test_broken_edge_index_names_the_file(fmt, fault, tmp_path):
    # an edge index entry of 1.5 used to load as 1, and -3 or 99 on a
    # 14-node set loaded without error
    value = {"non_integral": 1.5, "nan": float("nan"), "inf": float("inf"),
             "negative": -3.0, "too_large": 99.0}[fault]
    target = tmp_path / ("f.json" if fmt == "json" else fmt)
    fs = _feature_sets()[0]
    assert fs.num_nodes == 14
    export_features(fs, fmt, target)
    # the edge index's v of the first edge, in each format's place for it
    if fmt == "json":
        file = target
        doc = json.loads(file.read_text())
        doc["edge_index"][0][1] = value
        file.write_text(json.dumps(doc))
    elif fmt == "csv":
        file = target / "edge_er.csv"
        lines = file.read_bytes().split(b"\r\n")
        cells = lines[1].split(b",")
        cells[1] = repr(value).encode()
        lines[1] = b",".join(cells)
        file.write_bytes(b"\r\n".join(lines))
    else:
        file = target / "edge_index.bin"
        blob = bytearray(file.read_bytes())
        blob[24:32] = np.float64(value).astype("<f8").tobytes()
        file.write_bytes(bytes(blob))
    with pytest.raises(GraphInputError, match="edge_index holds") as info:
        load_features(target, fmt)
    assert str(file) in str(info.value)
    assert repr(value) in str(info.value)


def _larger_and_smaller_sets():
    """Exact four-family sets of a 60-node and a 20-node graph: every table
    of the second is shorter than the same table of the first."""
    return [assemble_features(random_connected_graph(n, 3.0, (0.5, 2.0),
                                                     seed=n), list(FAMILIES))
            for n in (60, 20)]


def _export_name(fmt):
    # a json export is the one file named; the others fill a directory
    return "features.json" if fmt == "json" else "export"


@pytest.mark.parametrize("fmt", ["binary", "csv", "json"])
def test_reexport_over_a_larger_export_equals_a_fresh_one(fmt, tmp_path):
    larger, smaller = _larger_and_smaller_sets()
    target = tmp_path / "rewritten" / _export_name(fmt)
    links = tmp_path / "links"
    links.mkdir()
    old = {}
    for file in export_features(larger, fmt, target):
        os.link(file, links / file.name)
        old[file.name] = file.stat()
    written = export_features(smaller, fmt, target)
    fresh = export_features(smaller, fmt, tmp_path / "fresh" / _export_name(fmt))
    assert [file.name for file in written] == [file.name for file in fresh]
    for file, oracle in zip(written, fresh):
        blob = file.read_bytes()
        assert hashlib.sha256(blob).digest() \
            == hashlib.sha256(oracle.read_bytes()).digest(), file.name
        if file.name != "manifest.json":
            # the older table reached past the new end, so a tail would show
            assert old[file.name].st_size > len(blob), file.name
        assert file.stat().st_ino == old[file.name].st_ino, file.name
        assert (links / file.name).read_bytes() == blob, file.name
    loaded = load_features(target, fmt)
    assert np.array_equal(loaded.edge_index, smaller.edge_index)
    for name in FAMILIES:
        assert np.allclose(getattr(loaded, name), getattr(smaller, name),
                           rtol=1e-15, atol=0), name


class _DiskFull:
    """Stands in for an open export file: it takes ``budget`` more bytes
    (characters, in text mode) and then fails as a full disk does."""

    def __init__(self, fh, budget):
        self.fh, self.budget = fh, budget

    def write(self, data):
        chunk = data if isinstance(data, str) else memoryview(data).cast("B")
        taken = chunk[:self.budget]
        self.fh.write(taken)
        self.budget -= len(taken)
        if len(taken) < len(chunk):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return len(chunk)

    def writelines(self, lines):
        for line in lines:
            self.write(line)


@pytest.mark.parametrize("fmt", ["binary", "csv", "json"])
def test_failed_reexport_leaves_a_prefix_of_the_new_file(fmt, tmp_path,
                                                          monkeypatch):
    larger, smaller = _larger_and_smaller_sets()
    victim = {"binary": "node_embedding.bin", "csv": "node_embedding.csv",
              "json": "features.json"}[fmt]
    fresh = next(file for file in export_features(
        smaller, fmt, tmp_path / "fresh" / _export_name(fmt))
        if file.name == victim).read_bytes()
    budget = len(fresh) // 2
    target = tmp_path / "rewritten" / _export_name(fmt)
    old = next(file for file in export_features(larger, fmt, target)
               if file.name == victim).stat()
    assert old.st_size > budget
    rewrite = features._rewrite

    @contextmanager
    def full_disk(path, *args, **kwargs):
        with rewrite(path, *args, **kwargs) as fh:
            yield _DiskFull(fh, budget) if Path(path).name == victim else fh

    monkeypatch.setattr(features, "_rewrite", full_disk)
    with pytest.raises(OSError, match=os.strerror(errno.ENOSPC)):
        export_features(smaller, fmt, target)
    file = target / victim if target.is_dir() else target
    # only the bytes written before the failure; none of the older file's
    assert file.read_bytes() == fresh[:budget]
    assert file.stat().st_ino == old.st_ino


def test_export_to_a_file_that_is_not_regular():
    # a device cannot be cut to length, and O_TRUNC leaves one alone too
    fs = assemble_features(_path3(), ["edge_er"])
    assert export_features(fs, "json", os.devnull) == [Path(os.devnull)]


def test_binary_header_and_determinism(tmp_path):
    fs = assemble_features(_path3(), ["edge_er"])
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    export_features(fs, "binary", out1)
    export_features(fs, "binary", out2)
    blob1 = (out1 / "edge_er.bin").read_bytes()
    blob2 = (out2 / "edge_er.bin").read_bytes()
    assert blob1 == blob2
    assert blob1[:4] == b"RESE"
    rows = int.from_bytes(blob1[4:8], "little")
    cols = int.from_bytes(blob1[8:12], "little")
    assert (rows, cols) == (2, 1)
    assert len(blob1) == 16 + rows * cols * 8


def test_binary_bad_magic_rejected(tmp_path):
    fs = assemble_features(_path3(), ["edge_er"])
    export_features(fs, "binary", tmp_path)
    target = tmp_path / "edge_er.bin"
    blob = bytearray(target.read_bytes())
    blob[:4] = b"XXXX"
    target.write_bytes(bytes(blob))
    with pytest.raises(GraphInputError, match="magic"):
        load_features(tmp_path, "binary")


@pytest.mark.parametrize("cut, message", [
    (10, "truncated binary array"),
    (-8, r"expected 32 bytes for 2x1 float64, got 24"),
    (None, r"expected 32 bytes for 2x1 float64, got 40")],
    ids=["header_cut", "payload_short", "payload_long"])
def test_binary_array_of_the_wrong_size_rejected(cut, message, tmp_path):
    fs = assemble_features(_path3(), ["edge_er"])
    export_features(fs, "binary", tmp_path)
    target = tmp_path / "edge_er.bin"
    blob = target.read_bytes()
    target.write_bytes(blob + bytes(8) if cut is None else blob[:cut])
    with pytest.raises(GraphInputError, match=f"edge_er.bin: {message}$"):
        load_features(tmp_path, "binary")


def test_unknown_format_rejected(tmp_path):
    fs = assemble_features(_path3(), ["edge_er"])
    with pytest.raises(ValueError, match="format"):
        export_features(fs, "parquet", tmp_path)
    with pytest.raises(ValueError, match="format"):
        load_features(tmp_path, "parquet")
