"""Self-check suites runnable from the CLI.

Each suite returns a list of :class:`CheckResult`; a check compares a
measured quantity produced by the main code paths against an independent
route (closed forms, identities, or frozen exact values) at an explicit
threshold. These are smaller, faster versions of the acceptance
tests so users can smoke-test an installation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import exact_embedding, sketched_embedding
from .graph import stationary_distribution
from .measures import AffinityTable, _closed_form, tetali_hitting_time
from .oracle import (WITNESS_EDGE_RESISTANCES, WITNESS_ORBITS,
                     broken_cycle_resistance, counterexample_pair,
                     cycle_resistance, grounded_hitting_times,
                     random_connected_graph, witness_graph)
from .wl import expressivity_report

SUITE_NAMES = ("identities", "jl", "ht-error", "expressivity")


@dataclass(frozen=True)
class CheckResult:
    """One named pass/fail check with the measured value and its threshold."""

    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return (f"[{status}] {self.name}: measured={self.measured:.3e} "
                f"threshold={self.threshold:.3e}{extra}")


def _corpus(seed: int, count: int = 12, max_nodes: int = 48):
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(count):
        n = int(rng.integers(8, max_nodes + 1))
        deg = float(rng.uniform(2.5, 6.0))
        weighted = bool(rng.integers(0, 2))
        wr = (0.5, 3.0) if weighted else (1.0, 1.0)
        graphs.append(random_connected_graph(n, deg, wr,
                                             seed=int(rng.integers(1 << 31))))
    return graphs


def _distinct_pairs(rng: np.random.Generator, num_nodes: int,
                    draws: int) -> np.ndarray:
    """(p, 2) node pairs from `draws` uniform draws, dropping u == v."""
    pairs = np.array([rng.integers(0, num_nodes, 2) for _ in range(draws)])
    return pairs[pairs[:, 0] != pairs[:, 1]]


def suite_identities(seed: int = 0) -> list[CheckResult]:
    """Distance identity, commute identity, and triple hitting agreement on a
    small random corpus."""
    graphs = _corpus(seed)
    worst_dist = 0.0
    worst_commute = 0.0
    worst_triple = 0.0
    rng = np.random.default_rng(seed + 1)
    for graph in graphs:
        table = AffinityTable.exact(graph)
        grounded = grounded_hitting_times(graph)
        embedding = exact_embedding(graph)
        pi = stationary_distribution(graph)
        pairs = _distinct_pairs(rng, graph.num_nodes, 8)
        er_embs, h_embs, _ = _closed_form(graph, embedding, *pairs.T)
        for (u, v), er_emb, h_emb in zip(pairs.tolist(), er_embs, h_embs):
            res = float(table.res[u, v])
            worst_dist = max(worst_dist, abs(er_emb - res))
            commute = grounded[u, v] + grounded[v, u]
            worst_commute = max(worst_commute,
                                abs(commute - 2.0 * graph.total_weight * res))
            h_sys = float(grounded[u, v])
            h_tab = float(table.hit[u, v])
            h_tet = tetali_hitting_time(graph, table.res, pi, u, v)
            scale = max(1.0, abs(h_sys))
            worst_triple = max(worst_triple,
                               abs(h_tab - h_sys) / scale,
                               abs(h_emb - h_sys) / scale,
                               abs(h_tet - h_sys) / scale)
    return [
        CheckResult("distance-identity", worst_dist <= 1e-8, worst_dist, 1e-8,
                    f"{len(graphs)} graphs"),
        CheckResult("commute-identity", worst_commute <= 1e-7, worst_commute,
                    1e-7, f"{len(graphs)} graphs"),
        CheckResult("hitting-triple-agreement", worst_triple <= 1e-6,
                    worst_triple, 1e-6,
                    "grounded vs table vs embedding vs resistance"),
    ]


def suite_jl(seed: int = 0) -> list[CheckResult]:
    """Sketched per-edge resistances stay within (1 +/- 3 eps)."""
    epsilon = 0.25
    violations = 0
    total = 0
    for i in range(5):
        graph = random_connected_graph(40 + 24 * i, 4.0, seed=seed + 100 + i)
        edges = graph.edge_u, graph.edge_v
        res = _closed_form(graph, exact_embedding(graph), *edges)[0]
        for trial in range(5):
            sketch = sketched_embedding(graph, epsilon, seed=seed + 10 * i + trial)
            approx = _closed_form(graph, sketch, *edges)[0]
            total += res.size
            violations += int(np.sum(~((1 - 3 * epsilon) * res <= approx)
                                     | ~(approx <= (1 + 3 * epsilon) * res)))
    return [CheckResult("jl-edge-resistance", violations == 0,
                        float(violations), 0.0,
                        f"{total} edge checks at eps={epsilon}")]


def suite_ht_error(seed: int = 0) -> list[CheckResult]:
    """Sketched hitting times stay within the 3 eps H_max additive bound."""
    ok_runs = 0
    runs = 0
    for i in range(4):
        graph = random_connected_graph(48 + 32 * i, 4.0, seed=seed + 200 + i)
        table = AffinityTable.exact(graph)
        rng = np.random.default_rng(seed + 300 + i)
        for epsilon in (0.1, 0.25):
            for trial in range(4):
                sketch = sketched_embedding(graph, epsilon,
                                            seed=seed + 17 * i + trial)
                bound = 3.0 * epsilon * table.h_max
                us, vs = _distinct_pairs(rng, graph.num_nodes, 24).T
                est = _closed_form(graph, sketch, us, vs)[1]
                worst = np.max(np.abs(est - table.hit[us, vs]), initial=0.0)
                runs += 1
                if worst <= bound:
                    ok_runs += 1
    rate = ok_runs / runs
    return [CheckResult("hitting-error-bound", rate >= 0.95, rate, 0.95,
                        f"{ok_runs}/{runs} runs inside 3 eps H_max")]


def suite_expressivity(seed: int = 0) -> list[CheckResult]:
    """Witness resistances and separation, and the cycle/path counterexample."""
    del seed  # deterministic fixtures
    results = []

    fixture = witness_graph()
    res = AffinityTable.exact(fixture).res
    gap = max(abs(res[u, v] - WITNESS_EDGE_RESISTANCES[
        tuple(sorted((WITNESS_ORBITS[u], WITNESS_ORBITS[v])))])
        for u, v in zip(fixture.edge_u.tolist(), fixture.edge_v.tolist()))
    results.append(CheckResult("witness-resistances", gap <= 1e-12, gap,
                               1e-12, f"{fixture.num_edges} witness edges "
                               f"vs frozen orbit-pair values"))

    report = expressivity_report(fixture)
    plain_one = report["plain"].num_classes == 1
    aug_three = all(report[name].num_classes == 3
                    for name in ("er", "ht", "embedding"))
    results.append(CheckResult("witness-separation", plain_one and aug_three,
                               float(report["er"].num_classes), 3.0,
                               "plain=1 class, augmented=3 orbit classes"))

    k = 3
    cycle, broken = counterexample_pair(k)
    n = cycle.num_nodes
    max_gap = 0.0
    table_c = AffinityTable.exact(cycle)
    table_b = AffinityTable.exact(broken)
    for i in range(1, n):
        gap = abs(float(table_c.res[0, i]) - cycle_resistance(n, i))
        gap = max(gap, abs(float(table_b.res[0, i])
                           - broken_cycle_resistance(n, i)))
        max_gap = max(max_gap, gap)
    results.append(CheckResult("counterexample-closed-forms",
                               max_gap <= 1e-9, max_gap, 1e-9,
                               f"cycle/path pair at k={k}"))
    return results


def run_suites(names, seed: int = 0) -> list[CheckResult]:
    table = {
        "identities": suite_identities,
        "jl": suite_jl,
        "ht-error": suite_ht_error,
        "expressivity": suite_expressivity,
    }
    results: list[CheckResult] = []
    for name in names:
        if name not in table:
            raise ValueError(f"unknown suite {name!r}; "
                             f"valid: {', '.join(SUITE_NAMES)} or all")
        results.extend(table[name](seed))
    return results
