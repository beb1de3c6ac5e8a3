"""Feature assembly, serialization round-trips, and rotation replay."""

import csv
import io
import json

import numpy as np
import pytest

from affinity.features import (FAMILIES, assemble_features,
                               augment_with_rotation, export_features,
                               graph_digest, load_features)
from affinity.graph import GraphInputError, build_graph
from affinity.measures import AffinityTable, effective_resistance
from affinity.oracle import random_connected_graph


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
    table = AffinityTable.exact(g)
    for (u, v), (huv, hvu) in zip(fs.edge_index.tolist(), fs.edge_ht.tolist()):
        assert abs(huv - table.hit[u, v]) <= 1e-9
        assert abs(hvu - table.hit[v, u]) <= 1e-9


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


def test_assemble_sketched_is_deterministic():
    g = random_connected_graph(20, 3.0, seed=3)
    a = assemble_features(g, ["node_embedding"], epsilon=0.3, seed=4)
    b = assemble_features(g, ["node_embedding"], epsilon=0.3, seed=4)
    assert np.array_equal(a.node_embedding, b.node_embedding)


def test_assemble_validation():
    g = _path3()
    with pytest.raises(ValueError, match="unknown"):
        assemble_features(g, ["nope"])
    with pytest.raises(ValueError, match="no feature"):
        assemble_features(g, [])
    # one node over the exact cap; the cap is checked before any eigh
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
# lists must be known (json holds a matching "bogus" table too)
_MANIFEST_FAULTS += [(fmt, fault) for fault in ["missing_table",
                                                "unknown_family"]
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


def test_unknown_format_rejected(tmp_path):
    fs = assemble_features(_path3(), ["edge_er"])
    with pytest.raises(ValueError, match="format"):
        export_features(fs, "parquet", tmp_path)
    with pytest.raises(ValueError, match="format"):
        load_features(tmp_path, "parquet")
