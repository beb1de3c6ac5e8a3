"""Feature assembly, serialization round-trips, and rotation replay."""

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
    # every family, and a node-only set whose export carries no edge family
    for families in (list(FAMILIES), ["node_embedding"]):
        fs = assemble_features(g, families, epsilon=0.4, seed=2)
        target = tmp_path / fmt / str(len(families))
        export_features(fs, fmt, target)
        loaded = load_features(target, fmt)
        assert loaded.manifest["graph_sha256"] == fs.manifest["graph_sha256"]
        assert np.array_equal(loaded.edge_index, fs.edge_index)
        for name in families:
            original = getattr(fs, name)
            restored = getattr(loaded, name)
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
