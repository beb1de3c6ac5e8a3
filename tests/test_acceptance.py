"""End-to-end acceptance checks for the package's headline guarantees.

Each test covers one advertised property at its stated tolerance and prints
a single ``[acceptance] <name>: PASS|FAIL`` line with the measured quantity,
so a verbose run doubles as a report (use ``pytest -s`` to see the lines for
passing tests too). The large-scale timing and memory checks sit at the end
of the file because they dominate the wall clock.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import affinity as af
from affinity import oracle
from affinity.measures import AffinityTable
from affinity.solvers import SMALL_COMPONENT_NODES
from oracles import (automorphism_orbits, build_grid, disjoint_union,
                     find_witness_graph, mc_hitting_time, pinv_resistances,
                     spd_bellman_ford)


def _report(name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {name}: {status} ({detail})")


def _first_seen(labels) -> np.ndarray:
    """Relabel a partition by order of first appearance.

    Two labelings describe the same partition exactly when their first-seen
    relabelings are identical arrays.
    """
    labels = np.asarray(labels)
    mapping: dict = {}
    out = np.empty(labels.shape[0], dtype=np.int64)
    for i, lab in enumerate(labels.tolist()):
        out[i] = mapping.setdefault(lab, len(mapping))
    return out


def _folded_hitting_table(graph, res) -> np.ndarray:
    """Tetali's resistance-only formula on a connected graph,
    H(u, v) = (K(u, v) + (K pi)_v - (K pi)_u) / 2 with K = 2M Res."""
    commute = 2.0 * graph.total_weight * res
    skew = commute @ af.stationary_distribution(graph)
    folded = 0.5 * (commute + skew[None, :] - skew[:, None])
    np.fill_diagonal(folded, 0.0)
    return folded


@pytest.fixture(scope="session")
def exact_tables(corpus100):
    return [AffinityTable.exact(g) for g in corpus100]


@pytest.fixture(scope="session")
def exact_embeddings(corpus100):
    return [af.exact_embedding(g) for g in corpus100]


@pytest.fixture(scope="session")
def grounded_tables(corpus100):
    return [oracle.grounded_hitting_times(g) for g in corpus100]


def test_distance_identity_holds_across_corpus(corpus100):
    """Squared embedding distances reproduce effective resistances.

    Checked over all node pairs of 100 mixed random graphs, and the whole
    sweep has to finish inside a minute.
    """
    start = time.perf_counter()
    worst = 0.0
    for g in corpus100:
        emb = af.exact_embedding(g)
        gram = emb.vectors @ emb.vectors.T
        sq = np.diag(gram)
        dist2 = sq[:, None] + sq[None, :] - 2.0 * gram
        worst = max(worst, float(np.max(np.abs(dist2 - pinv_resistances(g)))))
    elapsed = time.perf_counter() - start

    # tie the tables back to the pointwise operation on a few pairs
    g = corpus100[17]
    table = pinv_resistances(g)
    rng = np.random.default_rng(1)
    for u, v in rng.integers(0, g.num_nodes, size=(4, 2)):
        if u != v:
            got = af.effective_resistance(g, int(u), int(v))
            assert abs(got - table[u, v]) <= 1e-10

    ok = worst <= 1e-8 and elapsed < 60.0
    _report("distance identity, 100 graphs", ok,
            f"max gap {worst:.3e} vs 1e-8, {elapsed:.1f}s vs 60s")
    assert worst <= 1e-8
    assert elapsed < 60.0


def test_commute_times_match_resistance_scaling(corpus100, exact_tables,
                                                grounded_tables):
    """H(u,v) + H(v,u) equals 2 * total weight * Res(u,v) on every pair, with
    hitting times from the independent grounded solves."""
    worst = 0.0
    for g, table, grounded in zip(corpus100, exact_tables, grounded_tables):
        expected = 2.0 * g.total_weight * table.res
        gap = np.abs(grounded + grounded.T - expected)
        worst = max(worst, float(gap.max()))

    g, grounded = corpus100[7], grounded_tables[7]
    rng = np.random.default_rng(2)
    for u, v in rng.integers(0, g.num_nodes, size=(4, 2)):
        if u != v:
            got = af.commute_time(g, int(u), int(v))
            assert abs(got - (grounded[u, v] + grounded[v, u])) <= 1e-7

    _report("commute identity, 100 graphs", worst <= 1e-7,
            f"max gap {worst:.3e} vs 1e-7")
    assert worst <= 1e-7


def test_three_hitting_time_routes_agree(corpus100, exact_tables,
                                         exact_embeddings, grounded_tables):
    """Grounded solves (the independent oracle), embedding inner products,
    and the resistance-only folding formula on numpy.linalg.pinv resistances
    give the same hitting times on every ordered pair, and so does the
    closed-form exact table."""
    worst = 0.0
    for g, table, emb, grounded in zip(corpus100, exact_tables,
                                       exact_embeddings, grounded_tables):
        via_embedding = AffinityTable.approximate(emb, g).hit
        folded = _folded_hitting_table(g, pinv_resistances(g))
        worst = max(worst,
                    float(np.max(np.abs(grounded - table.hit))),
                    float(np.max(np.abs(grounded - via_embedding))),
                    float(np.max(np.abs(grounded - folded))),
                    float(np.max(np.abs(via_embedding - folded))))

    g, emb, grounded = corpus100[13], exact_embeddings[13], grounded_tables[13]
    pi = af.stationary_distribution(g)
    res = pinv_resistances(g)
    rng = np.random.default_rng(3)
    for u, v in rng.integers(0, g.num_nodes, size=(4, 2)):
        if u == v:
            continue
        u, v = int(u), int(v)
        assert abs(af.hitting_time_via_embedding(emb, g, u, v)
                   - grounded[u, v]) <= 1e-8
        assert abs(af.tetali_hitting_time(g, res, pi, u, v)
                   - grounded[u, v]) <= 1e-8

    _report("hitting-time route agreement, 100 graphs", worst <= 1e-6,
            f"max pairwise gap {worst:.3e} vs 1e-6")
    assert worst <= 1e-6


def test_witness_search_returns_unique_fingerprint_match():
    """The cubic enumeration finds exactly one graph with the target orbit
    structure, and its five edge classes carry the expected resistances."""
    # raises unless exactly one cubic graph matches the frozen values
    found, _ = find_witness_graph(oracle.WITNESS_EDGE_RESISTANCES)
    fixture = oracle.witness_graph()
    assert np.array_equal(found.edge_u, fixture.edge_u)
    assert np.array_equal(found.edge_v, fixture.edge_v)
    assert np.all(found.edge_w == 1.0)

    orbits = automorphism_orbits(found)
    sizes = np.bincount(orbits)
    assert sorted(sizes.tolist()) == [2, 2, 4]
    big = int(np.argmax(sizes))
    small_a, small_b = (int(o) for o in np.unique(orbits) if o != big)

    by_class: dict = {}
    for u, v in zip(found.edge_u, found.edge_v):
        key = tuple(sorted((int(orbits[u]), int(orbits[v]))))
        value = af.effective_resistance(found, int(u), int(v))
        by_class.setdefault(key, []).append(value)
    assert len(by_class) == 5
    spread = max(max(vals) - min(vals) for vals in by_class.values())
    assert spread <= 1e-12

    class_value = {key: vals[0] for key, vals in by_class.items()}
    worst = abs(class_value[(big, big)] - 15.0 / 28.0)
    # one small orbit carries the 2/3 internal edge and pairs with the
    # 185/336 bridges; the other carries 4/7 next to 209/336 bridges
    if abs(class_value[(small_a, small_a)] - 2.0 / 3.0) > 1e-6:
        small_a, small_b = small_b, small_a
    for key, expected in (
            ((small_a, small_a), 2.0 / 3.0),
            (tuple(sorted((small_a, big))), 185.0 / 336.0),
            ((small_b, small_b), 4.0 / 7.0),
            (tuple(sorted((small_b, big))), 209.0 / 336.0)):
        worst = max(worst, abs(class_value[key] - expected))

    _report("witness search and edge classes", worst <= 1e-12,
            f"unique match, max class gap {worst:.2e} vs 1e-12")
    assert worst <= 1e-12


def test_witness_separation_uses_exactly_orbit_classes():
    """Plain refinement sees one class on the witness graph; each affinity
    augmentation splits it into exactly the three automorphism orbits."""
    g = oracle.witness_graph()
    report = af.expressivity_report(g)
    orbits = _first_seen(automorphism_orbits(g))

    assert report["plain"].num_classes == 1
    details = []
    for name in ("er", "ht", "embedding"):
        variant = report[name]
        assert variant.num_classes == 3
        assert variant.strictly_refines_plain
        assert np.array_equal(_first_seen(variant.node_colors), orbits)
        details.append(f"{name}:{variant.num_classes}")

    _report("witness separation", True,
            "plain:1 " + " ".join(details) + " classes, orbit partition")


def test_counterexample_family_closed_forms_and_local_blindness():
    """Cycle versus broken-cycle resistances match their closed forms while
    k rounds of plain refinement cannot tell the graphs apart near node 0."""
    worst_closed = 0.0
    for k in range(1, 13):
        cycle, broken = af.counterexample_pair(k)
        n = 4 * k + 1
        res_cycle = pinv_resistances(cycle)[0]
        res_broken = pinv_resistances(broken)[0]
        for i in range(n):
            worst_closed = max(
                worst_closed,
                abs(res_cycle[i] - oracle.cycle_resistance(n, i)),
                abs(res_broken[i] - oracle.broken_cycle_resistance(n, i)))

        gaps = np.abs(res_cycle - res_broken)
        assert np.all(gaps[1:] > 1e-9), f"k={k}: some resistance agrees"

        union, offset = disjoint_union(cycle, broken)
        colors = af.wl_refine(union, max_rounds=k).node_colors
        hops = spd_bellman_ford(cycle, 0)
        near = hops <= k
        assert np.array_equal(colors[:n][near], colors[offset:][near]), \
            f"k={k}: colors differ inside the {k}-hop ball of node 0"
        assert not np.array_equal(colors[:n], colors[offset:]), \
            f"k={k}: refinement failed to separate the graphs globally"

    _report("cycle family closed forms and local blindness",
            worst_closed <= 1e-9,
            f"k=1..12, max closed-form gap {worst_closed:.2e} vs 1e-9")
    assert worst_closed <= 1e-9


SKETCH_SIZES = (40, 64, 96, 128, 160, 200, 260, 320, 400, 500)


@pytest.fixture(scope="session")
def sketch_corpus():
    graphs = []
    for gi, n in enumerate(SKETCH_SIZES):
        weights = (0.5, 2.0) if gi % 2 else (1.0, 1.0)
        graphs.append(af.random_connected_graph(
            n, 3.0 + (gi % 3), weights, seed=7000 + gi))
    return graphs


@pytest.mark.slow
def test_sketched_tables_meet_error_bounds(sketch_corpus):
    """Sketched hitting tables land within 3 * eps * H_max in at least 95%
    of runs per eps, and every edge resistance estimate from the same
    sketches stays within a (1 +- 3 eps) factor."""
    eps_grid = (0.05, 0.1, 0.25)
    runs = {eps: 0 for eps in eps_grid}
    passes = {eps: 0 for eps in eps_grid}
    edge_violations = 0

    for gi, g in enumerate(sketch_corpus):
        res = pinv_resistances(g)
        res_edges = res[g.edge_u, g.edge_v]
        hit = _folded_hitting_table(g, res)
        for eps in eps_grid:
            bound = 3.0 * eps * float(hit.max())
            for trial in range(20):
                sk = af.sketched_embedding(g, eps, seed=100 * gi + trial)
                approx = AffinityTable.approximate(sk, g)
                runs[eps] += 1
                if float(np.max(np.abs(approx.hit - hit))) <= bound:
                    passes[eps] += 1
                diffs = sk.vectors[g.edge_u] - sk.vectors[g.edge_v]
                rel = np.abs(np.einsum("ij,ij->i", diffs, diffs)
                             - res_edges) / res_edges
                if float(rel.max()) > 3.0 * eps:
                    edge_violations += 1

    rates = {eps: passes[eps] / runs[eps] for eps in eps_grid}
    ok = (edge_violations == 0
          and all(passes[eps] >= math.ceil(0.95 * runs[eps])
                  for eps in eps_grid))
    detail = ", ".join(f"eps={eps}: {passes[eps]}/{runs[eps]}"
                       for eps in eps_grid)
    _report("sketch error bounds", ok,
            detail + f", edge violations {edge_violations}")
    for eps in eps_grid:
        assert passes[eps] >= math.ceil(0.95 * runs[eps]), \
            f"eps={eps}: only {rates[eps]:.0%} of runs within 3 eps H_max"
    assert edge_violations == 0


def test_walk_simulation_confirms_exact_hitting_times():
    """Monte Carlo hitting-time estimates bracket the solver values.

    30 random cases; at least 28 must land within three standard errors and
    no walk may hit the step cap.
    """
    rng = np.random.default_rng(20260814)
    within = 0
    truncated = 0
    for case in range(30):
        n = int(rng.integers(6, 15))
        weights = (0.5, 2.0) if case % 3 == 0 else (1.0, 1.0)
        g = af.random_connected_graph(n, 2.6, weights, seed=3000 + case)
        u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        estimate = mc_hitting_time(g, u, v, num_walks=3000,
                                   seed=4000 + case)
        exact = float(af.hitting_time_exact(g, v)[u])
        truncated += estimate.truncated
        if abs(estimate.mean - exact) <= 3.0 * estimate.stderr:
            within += 1

    ok = within >= 28 and truncated == 0
    _report("walk calibration", ok,
            f"{within}/30 within 3 stderr, {truncated} truncated walks")
    assert truncated == 0
    assert within >= 28


def test_rotation_invariance_of_derived_measures():
    """Random rotations leave pairwise distances and hitting estimates
    unchanged, and every generated rotation is orthonormal."""
    g_exact = af.random_connected_graph(48, 3.5, (0.5, 2.0), seed=71)
    emb = af.exact_embedding(g_exact)
    base_gram = emb.vectors @ emb.vectors.T
    sq = np.diag(base_gram)
    base_dist2 = sq[:, None] + sq[None, :] - 2.0 * base_gram

    g_sketch = af.random_connected_graph(64, 3.0, seed=72)
    sk = af.sketched_embedding(g_sketch, 0.25, seed=9)
    base_hit = AffinityTable.approximate(sk, g_sketch).hit
    sk_diffs = sk.vectors[g_sketch.edge_u] - sk.vectors[g_sketch.edge_v]
    base_edge_er = np.einsum("ij,ij->i", sk_diffs, sk_diffs)

    worst_orth = 0.0
    worst_value = 0.0
    for seed in range(20):
        for embedding, dim in ((emb, emb.dim), (sk, sk.dim)):
            rot = af.random_rotation(dim, seed=seed)
            eye_gap = rot.T @ rot - np.eye(dim)
            worst_orth = max(worst_orth, float(np.max(np.abs(eye_gap))))
            rotated = dataclasses.replace(embedding,
                                          vectors=embedding.vectors @ rot.T)
            if embedding is emb:
                gram = rotated.vectors @ rotated.vectors.T
                s = np.diag(gram)
                dist2 = s[:, None] + s[None, :] - 2.0 * gram
                worst_value = max(worst_value,
                                  float(np.max(np.abs(dist2 - base_dist2))))
            else:
                hit = AffinityTable.approximate(rotated, g_sketch).hit
                worst_value = max(worst_value,
                                  float(np.max(np.abs(hit - base_hit))))
                d = (rotated.vectors[g_sketch.edge_u]
                     - rotated.vectors[g_sketch.edge_v])
                er = np.einsum("ij,ij->i", d, d)
                worst_value = max(worst_value,
                                  float(np.max(np.abs(er - base_edge_er))))

    ok = worst_orth <= 1e-10 and worst_value <= 1e-9
    _report("rotation invariance, 20 rotations", ok,
            f"max orthonormality gap {worst_orth:.2e} vs 1e-10, "
            f"max value drift {worst_value:.2e} vs 1e-9")
    assert worst_orth <= 1e-10
    assert worst_value <= 1e-9


@pytest.mark.parametrize("route", ["small", "pcg", "direct"])
def test_identical_runs_produce_identical_bytes(route, tmp_path):
    """Two CLI invocations with the same seed write byte-identical exports
    in every format, including the sketched and rotated feature families,
    on both solve routes: a 60-node graph (small components) and a 30 x 30
    grid (narrow envelope) take the sparse LU route, and a graph of two
    random components, one of them of SMALL_COMPONENT_NODES nodes or more,
    plus an isolated node runs block PCG with the multi-component
    projection."""
    cli = [sys.executable, "-m", "affinity.cli"]
    graph_path = tmp_path / "graph.json"
    if route == "small":
        subprocess.run(cli + ["gen", "random", "--n", "60", "--avg-degree",
                              "4", "--wmin", "0.5", "--wmax", "2.0", "--seed",
                              "5", "--out", str(graph_path)],
                       check=True, capture_output=True)
        epsilon = "0.25"
    elif route == "pcg":
        joined, _ = disjoint_union(
            af.random_connected_graph(600, 6.0, (0.5, 2.0), seed=7),
            af.random_connected_graph(250, 4.0, (0.5, 2.0), seed=8))
        g = af.build_graph(joined.num_nodes + 1, np.column_stack(
            [joined.edge_u, joined.edge_v, joined.edge_w]))
        assert g.num_nodes >= SMALL_COMPONENT_NODES and g.num_components == 3
        assert af.solvers._plan(g, solve=True).route == "PCG"
        graph_path.write_text(json.dumps(af.graph_to_json_dict(g)))
        epsilon = "0.5"
    else:
        g = build_grid(30, 30)
        assert g.num_nodes >= SMALL_COMPONENT_NODES
        assert af.solvers._plan(g, solve=True).route == "sparse LU"
        graph_path.write_text(json.dumps(af.graph_to_json_dict(g)))
        epsilon = "0.5"

    outputs = []
    for name in ("first", "second"):
        files = {}
        for fmt in ("binary", "csv", "json"):
            # into an existing directory json writes features.json
            out = tmp_path / name / fmt
            out.mkdir(parents=True)
            subprocess.run(cli + ["compute", "--input", str(graph_path),
                                  "--features", "er,ht,node-emb,edge-emb",
                                  "--epsilon", epsilon, "--seed", "11",
                                  "--rotate", "5", "--format", fmt,
                                  "--out", str(out)],
                           check=True, capture_output=True)
            files.update({f"{fmt}/{p.name}": p.read_bytes()
                          for p in sorted(out.iterdir())})
        outputs.append(files)

    first, second = outputs
    assert {"binary/edge_er.bin", "csv/edge_er.csv",
            "json/features.json"} <= set(first)
    assert set(first) == set(second)
    mismatched = [name for name in first if first[name] != second[name]]
    _report(f"byte-identical repeat runs ({route})", not mismatched,
            f"{len(first)} files compared, mismatches: {mismatched or 'none'}")
    assert not mismatched



@pytest.mark.parametrize("route", ["pcg", "direct", "small"])
def test_sparse_route_exports_do_not_depend_on_blas_threads(route, tmp_path):
    """An unrotated sketch writes the same bytes under one and two OpenBLAS
    threads: neither solve route calls a dense BLAS product. A 600-node
    random graph runs block PCG; a 1,000-node path and a 300-node random
    graph take the sparse LU route."""
    if route == "pcg":
        g = af.random_connected_graph(600, 6.0, (0.5, 2.0), seed=9)
        assert af.solvers._plan(g, solve=True).route == "PCG"
    elif route == "small":
        g = af.random_connected_graph(300, 6.0, (0.5, 2.0), seed=9)
        assert af.solvers._plan(g, solve=True).route == "sparse LU"
    else:
        g = af.build_path(1000)
        assert af.solvers._plan(g, solve=True).route == "sparse LU"
    graph_path = tmp_path / "graph.json"
    graph_path.write_text(json.dumps(af.graph_to_json_dict(g)))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "affinity.cli", "compute",
                        "--input", str(graph_path),
                        "--features", "er,ht,node-emb,edge-emb",
                        "--epsilon", "0.5", "--seed", "11",
                        "--format", "binary", "--out", str(out)],
                       check=True, capture_output=True,
                       env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    one, two = outputs
    assert len(one) == 6 and set(one) == set(two)
    mismatched = [name for name in one if one[name] != two[name]]
    _report(f"same bytes under 1 and 2 BLAS threads ({route})",
            not mismatched, f"{len(one)} files compared, mismatches: "
            f"{mismatched or 'none'}")
    assert not mismatched

def _sparse_instance(n: int, m: int, seed: int):
    return af.random_connected_graph(n, 2.0 * m / n, seed=seed)


@pytest.mark.slow
def test_sketch_scaling_time_and_memory():
    """Sketching 100k-node graphs stays inside the advertised wall-clock
    budget, doubling the edge count less than triples the time, and the
    traced peak memory scales like the sketch plus the graph, not like a
    dense table."""
    n = 100_000
    eps = 0.5
    times = {}
    for m, seed in ((250_000, 50), (500_000, 51), (1_000_000, 52)):
        g = _sparse_instance(n, m, seed)
        assert g.num_edges == m
        start = time.perf_counter()
        af.sketched_embedding(g, eps, seed=seed)
        times[m] = time.perf_counter() - start
        del g

    g = _sparse_instance(n, 250_000, 50)
    k = af.jl_dimension(n, g.num_edges, eps)
    tracemalloc.start()
    sk = af.sketched_embedding(g, eps, seed=50)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert sk.dim == k

    # budget: sketch itself (k*n) with one transient copy, the blocked
    # solver's working set (128 columns, ~a dozen arrays), the graph and
    # its edge-indexed temporaries, plus a fixed allowance
    budget = 8.0 * (2 * k * n + 12 * 128 * n + 60 * (n + g.num_edges))
    budget += 128 * 2 ** 20
    floor = 8.0 * k * n  # the returned vectors alone

    detail = (f"m=250k {times[250_000]:.0f}s, m=500k {times[500_000]:.0f}s, "
              f"m=1M {times[1_000_000]:.0f}s vs 300s, k={k}, "
              f"peak {peak / 2**30:.2f} GiB vs {budget / 2**30:.2f} GiB, "
              f"cpus={os.cpu_count()}")
    ok = (times[1_000_000] < 300.0
          and times[500_000] < 3.0 * times[250_000]
          and times[1_000_000] < 3.0 * times[500_000]
          and floor <= peak <= budget)
    _report("large-graph time and memory", ok, detail)
    assert times[1_000_000] < 300.0
    assert times[500_000] < 3.0 * times[250_000]
    assert times[1_000_000] < 3.0 * times[500_000]
    assert floor <= peak <= budget
