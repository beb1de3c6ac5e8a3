"""Exact and sketched embeddings, sketch dimensioning, and rotations."""

import numpy as np
import pytest

from affinity.embeddings import (exact_embedding, jl_dimension,
                                 random_rotation, sketched_embedding)
from affinity.graph import build_graph
from affinity.measures import (effective_resistance,
                               effective_resistance_from_embedding)
from affinity.oracle import build_cycle, random_connected_graph
from oracles import build_grid
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


def test_sketched_embedding_chunk_size_agreement():
    g = random_connected_graph(30, 3.0, seed=4)
    a = sketched_embedding(g, 0.4, seed=5, chunk_size=128)
    b = sketched_embedding(g, 0.4, seed=5, chunk_size=7)
    assert np.max(np.abs(a.vectors - b.vectors)) <= 1e-10


def test_sketched_embedding_chunk_size_agreement_on_a_grid():
    # 625 nodes and a narrow envelope: the sparse LU route
    g = build_grid(25, 25)
    a = sketched_embedding(g, 0.4, seed=5, chunk_size=128)
    b = sketched_embedding(g, 0.4, seed=5, chunk_size=7)
    assert np.max(np.abs(a.vectors - b.vectors)) <= 1e-10


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
    assert message.startswith(f"128 of {k} sketch rows (0-127) did not converge")
    assert "worst relative residual" in message
    assert len(message) < 250


def test_sketched_embedding_rejects_chunk_size_below_one():
    g = random_connected_graph(50, 3.0, seed=4)
    for chunk_size in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match="chunk_size"):
            sketched_embedding(g, 0.4, seed=5, chunk_size=chunk_size)
    for seed in (-1, 2.5, True):
        with pytest.raises(ValueError, match="seed"):
            sketched_embedding(g, 0.4, seed=seed)
    plain = sketched_embedding(g, 0.4, seed=5, chunk_size=7)
    numpy_ints = sketched_embedding(g, 0.4, seed=np.int64(5),
                                    chunk_size=np.int32(7))
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

