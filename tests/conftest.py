"""Shared corpora and fixtures for the test suite.

The main corpus (100 random connected weighted graphs, n <= 64) backs the
identity criteria; individual test modules build smaller throwaway graphs
inline. The ``pcg_route`` fixture lets a test run block PCG on small graphs
and on paths and grids.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from affinity import solvers
from affinity.oracle import random_connected_graph

CORPUS_SEED = 20260814


def make_corpus(count: int, max_nodes: int, seed: int = CORPUS_SEED):
    """Deterministic list of random connected graphs, half of them weighted."""
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(count):
        n = int(rng.integers(4, max_nodes + 1))
        avg_degree = float(rng.uniform(2.2, min(6.0, n - 1.0)))
        weight_range = (0.3, 4.0) if i % 2 else (1.0, 1.0)
        graphs.append(random_connected_graph(
            n, avg_degree, weight_range, seed=int(rng.integers(1 << 31))))
    return graphs


@pytest.fixture(scope="session")
def corpus100():
    return make_corpus(100, 64)


@pytest.fixture(scope="session")
def corpus_small():
    return make_corpus(20, 32, seed=CORPUS_SEED + 1)


@pytest.fixture
def pcg_route(monkeypatch):
    """Call the returned switch to send every later ``solve_laplacian`` call
    of the test down the block-PCG route, whatever the graph's size and
    shape: the route rule refuses the sparse LU route, and the solver starts
    from fresh plans, so a graph planned before the switch (a session
    corpus graph, say) is planned again under the patched rule. The old
    plans come back when the test ends."""
    def switch():
        monkeypatch.setattr(solvers, "_PLANS", weakref.WeakKeyDictionary())
        monkeypatch.setattr(solvers, "_takes_sparse_lu", lambda graph: False)
    return switch
