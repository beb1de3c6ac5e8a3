"""Exact and sketched embeddings, sketch dimensioning, and rotations."""

import numpy as np
import pytest

from affinity import solvers
from affinity.embeddings import (exact_embedding, jl_dimension,
                                 random_rotation, sketched_embedding)
from affinity.graph import build_graph
from affinity.measures import (effective_resistance,
                               effective_resistance_from_embedding)
from affinity.oracle import build_cycle, random_connected_graph
from oracles import build_grid, disjoint_union, pinv_laplacian
from affinity.solvers import SolverConfig, SolverConvergenceError


def test_jl_dimension_values():
    # direct evaluation of ceil(4 ln(mn) / eps^2)
    assert jl_dimension(1000, 5000, 0.1) == 6170
    assert jl_dimension(2, 1, 0.5) == 12


def test_jl_dimension_validation():
    with pytest.raises(ValueError):
        jl_dimension(10, 10, 0.0)
    with pytest.raises(ValueError):
        jl_dimension(10, 10, 1.0)
    with pytest.raises(ValueError):
        jl_dimension(0, 10, 0.5)


def test_jl_dimension_monotone_in_epsilon():
    dims = [jl_dimension(100, 300, eps) for eps in (0.5, 0.25, 0.1, 0.05)]
    assert dims == sorted(dims)


def test_exact_embedding_distances_are_resistances(corpus_small):
    for g in corpus_small[:8]:
        emb = exact_embedding(g)
        assert emb.vectors.shape == (g.num_nodes, g.num_edges)
        rng = np.random.default_rng(0)
        for _ in range(6):
            u, v = rng.integers(0, g.num_nodes, 2)
            if u == v:
                continue
            res = effective_resistance(g, int(u), int(v))
            dist = effective_resistance_from_embedding(emb, int(u), int(v))
            assert abs(dist - res) <= 1e-8


def test_sketched_embedding_dimension_and_metadata():
    g = random_connected_graph(40, 4.0, seed=2)
    emb = sketched_embedding(g, 0.3, seed=7)
    assert emb.kind == "sketched"
    assert emb.dim == jl_dimension(40, g.num_edges, 0.3)
    assert emb.epsilon == 0.3
    assert emb.seed == 7


def test_sketched_embedding_deterministic_bitwise():
    g = random_connected_graph(30, 3.0, (0.5, 2.0), seed=3)
    a = sketched_embedding(g, 0.25, seed=11)
    b = sketched_embedding(g, 0.25, seed=11)
    assert np.array_equal(a.vectors, b.vectors)
    c = sketched_embedding(g, 0.25, seed=12)
    assert not np.array_equal(a.vectors, c.vectors)


def _sketches_at_chunk_sizes(monkeypatch, g, chunks):
    """Sketch vectors of g (eps 0.4, seed 5) with solvers._CHUNK_COLUMNS set
    to each of chunks in turn."""
    vectors = []
    for chunk in chunks:
        monkeypatch.setattr(solvers, "_CHUNK_COLUMNS", chunk)
        vectors.append(sketched_embedding(g, 0.4, seed=5).vectors)
    return vectors


def test_sketched_embedding_chunk_size_agreement(monkeypatch):
    g = random_connected_graph(30, 3.0, seed=4)
    a, b = _sketches_at_chunk_sizes(monkeypatch, g, (128, 7))
    assert np.max(np.abs(a - b)) <= 1e-10


def test_sketched_embedding_chunk_size_agreement_on_a_grid(monkeypatch):
    # 625 nodes and a narrow envelope: the sparse LU route
    g = build_grid(25, 25)
    a, b = _sketches_at_chunk_sizes(monkeypatch, g, (128, 7))
    assert np.max(np.abs(a - b)) <= 1e-10


def test_sketch_convergence_error_states_its_rows_briefly():
    # no float solve reaches a residual of 1e-30 relative, so every row of
    # the first chunk fails
    g = build_grid(25, 25)
    k = jl_dimension(g.num_nodes, g.num_edges, 0.5)
    assert k > 128
    with pytest.raises(SolverConvergenceError) as excinfo:
        sketched_embedding(g, 0.5, seed=1,
                           config=SolverConfig(rel_tolerance=1e-30))
    err = excinfo.value
    assert list(err.columns) == list(range(128))
    assert len(err.residuals) == 128
    message = str(err)
    assert message.startswith("sparse LU missed tolerance 1e-30 on 128 "
                              "column(s); worst relative residual ")
    worst = int(err.columns[np.argmax(err.residuals)])
    assert message.endswith(f" at column {worst}")
    assert len(message) < 250


def test_sketched_embedding_seed_must_be_a_non_negative_int():
    g = random_connected_graph(50, 3.0, seed=4)
    for seed in (-1, 2.5, True):
        with pytest.raises(ValueError, match="seed"):
            sketched_embedding(g, 0.4, seed=seed)
    plain = sketched_embedding(g, 0.4, seed=5)
    numpy_ints = sketched_embedding(g, 0.4, seed=np.int64(5))
    assert numpy_ints.seed == 5 and type(numpy_ints.seed) is int
    assert np.array_equal(numpy_ints.vectors, plain.vectors)


def test_sketched_embedding_edge_guarantee():
    # every edge within (1 +/- 3 eps) of the exact resistance
    eps = 0.25
    g = random_connected_graph(60, 4.0, (0.5, 2.0), seed=6)
    exact = exact_embedding(g)
    sketch = sketched_embedding(g, eps, seed=0)
    for u, v in zip(g.edge_u.tolist(), g.edge_v.tolist()):
        res = effective_resistance_from_embedding(exact, u, v)
        approx = effective_resistance_from_embedding(sketch, u, v)
        assert (1 - 3 * eps) * res <= approx <= (1 + 3 * eps) * res


def test_sketched_cycle_edge_concentration():
    # eps=0.1 on the 9-cycle: edge estimate lands in [0.9, 1.1] * (8/9)
    # for at least 95 of 100 seeds
    g = build_cycle(9)
    target = 8.0 / 9.0
    hits = 0
    for seed in range(100):
        sketch = sketched_embedding(g, 0.1, seed=seed)
        est = effective_resistance_from_embedding(sketch, 0, 1)
        if 0.9 * target <= est <= 1.1 * target:
            hits += 1
    assert hits >= 95


def test_sketched_embedding_requires_edges_and_seed():
    empty = build_graph(3, [])
    with pytest.raises(ValueError, match="at least one edge"):
        sketched_embedding(empty, 0.5, seed=0)
    g = build_graph(2, [(0, 1)])
    with pytest.raises(ValueError, match="non-negative"):
        sketched_embedding(g, 0.5, seed=-1)


def test_sketch_respects_solver_config_tightening():
    # a sketch with a loose user tolerance must still deliver eps/10
    g = random_connected_graph(600, 3.0, seed=8)  # large enough for PCG
    cfg = SolverConfig(rel_tolerance=0.9e-1)
    emb = sketched_embedding(g, 0.5, seed=1, config=cfg)
    assert emb.dim == jl_dimension(600, g.num_edges, 0.5)
    assert np.all(np.isfinite(emb.vectors))


def test_random_rotation_properties():
    for seed in range(5):
        rot = random_rotation(6, seed)
        eye = rot.T @ rot
        assert np.max(np.abs(eye - np.eye(6))) <= 1e-10
        assert abs(np.linalg.det(rot) - 1.0) <= 1e-10
    assert np.array_equal(random_rotation(6, 3), random_rotation(6, 3))
    with pytest.raises(ValueError):
        random_rotation(0, 1)
    # bool is an int to Python; numpy ints are fine
    assert np.array_equal(random_rotation(np.int64(6), np.uint8(3)),
                          random_rotation(6, 3))
    for dim, seed, name in [(2.5, 1, "dim"), (True, 5, "dim"), (3, 2.5, "seed"),
                            (3, True, "seed"), (3, -1, "seed")]:
        with pytest.raises(ValueError, match=name):
            random_rotation(dim, seed)


def test_rotation_dim_one():
    assert np.allclose(random_rotation(1, 0), [[1.0]])



def _readme_signs(seed: int, k: int, m: int) -> np.ndarray:
    """(k, m) sign matrix Q rebuilt from the stream layout the README gives:
    row i is ``Philox(key=key, counter=i * W).random_raw(4 * W)`` with
    W = ceil(m / 256), and its bit e, bit e % 64 of word e // 64, is +1 when
    0 and -1 when 1."""
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    steps = -(-m // 256)
    edges = np.arange(m)
    q = np.empty((k, m))
    for i in range(k):
        words = np.random.Philox(key=key, counter=i * steps).random_raw(
            4 * steps)
        bits = (words[edges // 64] >> (edges % 64).astype(np.uint64)) & 1
        q[i] = np.where(bits == 1, -1.0, 1.0)
    return q


def _readme_sketch(g, epsilon: float, seed: int) -> np.ndarray:
    """pinv(L) B^T C^(1/2) Q^T / sqrt(k), with the incidence B built here
    from the edge arrays and L+ from ``numpy.linalg.pinv``."""
    k = jl_dimension(g.num_nodes, g.num_edges, epsilon)
    incidence = np.zeros((g.num_edges, g.num_nodes))
    edges = np.arange(g.num_edges)
    incidence[edges, g.edge_u] = 1.0
    incidence[edges, g.edge_v] = -1.0
    weighted = incidence.T * np.sqrt(g.edge_w)
    q = _readme_signs(seed, k, g.num_edges)
    return pinv_laplacian(g) @ weighted @ q.T / np.sqrt(k)


@pytest.mark.parametrize("name", ["weighted", "two_components"])
def test_sketch_follows_the_readme_stream_layout(name, monkeypatch):
    if name == "weighted":
        g = random_connected_graph(40, 4.0, (0.5, 2.0), seed=21)
    else:
        g, _ = disjoint_union(random_connected_graph(25, 3.0, seed=22),
                              random_connected_graph(15, 3.0, (0.5, 2.0),
                                                     seed=23))
    monkeypatch.setattr(solvers, "_CHUNK_COLUMNS", 50)
    for seed in (0, 3):
        expected = _readme_sketch(g, 0.5, seed)
        got = sketched_embedding(g, 0.5, seed=seed).vectors
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1e-9 * np.max(np.abs(expected))


def test_sketch_seed_beyond_64_bits_keys_its_own_stream():
    g = random_connected_graph(40, 4.0, (0.5, 2.0), seed=21)
    big = 2 ** 70 + 9
    wide = sketched_embedding(g, 0.5, seed=big)
    low = sketched_embedding(g, 0.5, seed=big % 2 ** 64)
    assert wide.seed == big
    assert not np.array_equal(wide.vectors, low.vectors)
    expected = _readme_sketch(g, 0.5, big)
    assert np.max(np.abs(wide.vectors - expected)) \
        <= 1e-9 * np.max(np.abs(expected))
