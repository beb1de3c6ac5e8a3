"""Self-check suites runnable from the CLI.

Each suite returns a list of :class:`CheckResult`; a check compares a
measured quantity produced by the main code paths against an independent
route (closed forms, identities, or brute-force search) at an explicit
threshold. These are smaller, faster versions of the acceptance
tests so users can smoke-test an installation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import exact_embedding, sketched_embedding
from .graph import stationary_distribution
from .measures import (AffinityTable, effective_resistance_from_embedding,
                       hitting_time_via_embedding, tetali_hitting_time)
from .oracle import (broken_cycle_resistance, counterexample_pair,
                     cycle_resistance, find_witness_graph,
                     grounded_hitting_times, random_connected_graph,
                     witness_graph)
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
        for _ in range(8):
            u, v = rng.integers(0, graph.num_nodes, 2)
            u, v = int(u), int(v)
            if u == v:
                continue
            res = float(table.res[u, v])
            er_emb = effective_resistance_from_embedding(embedding, u, v)
            worst_dist = max(worst_dist, abs(er_emb - res))
            commute = grounded[u, v] + grounded[v, u]
            worst_commute = max(worst_commute,
                                abs(commute - 2.0 * graph.total_weight * res))
            h_sys = float(grounded[u, v])
            h_tab = float(table.hit[u, v])
            h_emb = hitting_time_via_embedding(embedding, graph, u, v)
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
        exact = exact_embedding(graph)
        for trial in range(5):
            sketch = sketched_embedding(graph, epsilon, seed=seed + 10 * i + trial)
            for u, v in zip(graph.edge_u.tolist(), graph.edge_v.tolist()):
                res = effective_resistance_from_embedding(exact, u, v)
                approx = effective_resistance_from_embedding(sketch, u, v)
                total += 1
                if not (1 - 3 * epsilon) * res <= approx <= (1 + 3 * epsilon) * res:
                    violations += 1
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
                worst = 0.0
                for _ in range(24):
                    u, v = rng.integers(0, graph.num_nodes, 2)
                    if u == v:
                        continue
                    est = hitting_time_via_embedding(sketch, graph, int(u),
                                                     int(v))
                    worst = max(worst, abs(est - table.hit[u, v]))
                runs += 1
                if worst <= bound:
                    ok_runs += 1
    rate = ok_runs / runs
    return [CheckResult("hitting-error-bound", rate >= 0.95, rate, 0.95,
                        f"{ok_runs}/{runs} runs inside 3 eps H_max")]


def suite_expressivity(seed: int = 0) -> list[CheckResult]:
    """Witness graph separation and the local-blindness counterexample."""
    del seed  # deterministic fixtures
    results = []

    found = find_witness_graph()
    fixture = witness_graph()
    same = (found.num_nodes == fixture.num_nodes
            and np.array_equal(found.edge_u, fixture.edge_u)
            and np.array_equal(found.edge_v, fixture.edge_v))
    results.append(CheckResult("witness-search", same, float(same), 1.0,
                               "unique cubic graph matches frozen fixture"))

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
