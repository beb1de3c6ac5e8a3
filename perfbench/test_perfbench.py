"""Tests of the benchmark itself: tiny runs of every workload, the self-time
arithmetic, the wrapper lifecycle, the host-speed scaling and the output
checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import phase
import run
import tracer
import workloads


def _functions(af) -> dict:
    """Every callable attribute of every package module, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "affinity"
                                   or name.startswith("affinity.")):
            for attr, value in vars(module).items():
                if callable(value):
                    out[(name, attr)] = value
    out["AffinityTable.exact"] = af.measures.AffinityTable.__dict__["exact"]
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_runs_tiny_and_its_checks_pass(workload):
    result = run.run_benchmark(workload, seed=5, seconds=0.01, trace=False,
                               size="tiny")
    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["end_to_end"]) == set(run.END_TO_END)
    assert all(v > 0 for v in result["end_to_end"].values())
    line = json.loads(run.summary_line(result))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(run.END_TO_END)


def test_traced_run_reports_every_layer_and_accounts_for_wall_time():
    result = run.run_benchmark("expander_sketch", seed=5, seconds=0.01,
                               trace=True, size="tiny")
    assert result["correct"]
    layers = result["layers"]
    assert set(layers) == set(tracer.LAYER_METRICS)
    assert layers["solvers.pcg_iterations"] == layers["solvers.matvec_calls"] > 0
    assert layers["embeddings.sketch_dim"] > 0
    assert layers["features.export_mb.binary"] > 0
    assert layers["features.assemble_peak_mb"] > 0
    assert result["traced_passes"] >= 1 and result["passes"] >= 1
    assert all(rec["traced"] == (rec["pass"] % 2 == 1)
               for rec in result["records"] if rec["pass"] >= 0)
    rows = result["self_table"]
    total_self = sum(row["self_s"] for row in rows.values())
    assert total_self == pytest.approx(rows[tracer.ROOT_SPAN]["total_s"])
    assert 0.5 < layers["trace.layers_self_share"] <= 1.0


def test_times_are_scaled_by_host_speed_and_nothing_else():
    records = [{"pass": p, "seconds": s, "error": None, "check": c}
               for p, s, c in ((0, 1.0, None), (0, 3.0, "wrong"),
                               (1, 2.0, None), (1, 2.0, None))]
    raw = run.end_to_end(records, 0.5, 100.0, 1.0)
    assert raw == {"setup_s": 0.5, "wall_s": 4.0, "job_p50_s": 2.0,
                   "job_p95_s": pytest.approx(2.85), "peak_rss_mb": 100.0,
                   "ok_share": 0.75}
    scaled = run.end_to_end(records, 0.5, 100.0, 0.5)
    for name, value in raw.items():
        factor = 0.5 if name.endswith("_s") else 1.0
        assert scaled[name] == pytest.approx(value * factor)


def test_calibration_samples_in_proportion_to_job_time(monkeypatch):
    calibration = phase.Calibration()
    monkeypatch.setattr(calibration, "run",
                        lambda: calibration.samples.append(1.0))
    step = phase.CALIBRATE_EVERY_S
    for _ in range(5):
        calibration.catch_up(step * 0.4)
    assert len(calibration.samples) == 2
    calibration.catch_up(step * 100)
    assert len(calibration.samples) == 2 + phase.CALIBRATE_MAX_BURST
    assert calibration.owed <= step


def _span(name, start, end, parent, **info):
    return tracer.Span(name, start, parent, end, info=info)


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        _span("job", 0.0, 10.0, -1, **{"pass": 0}),
        _span("solvers.pcg", 1.0, 8.0, 0),
        _span("solvers.matvec", 2.0, 4.0, 1, nnz=10, n=4, cols=3),
        _span("solvers.project", 4.5, 5.0, 1),
        _span("graph.load", 8.0, 9.5, 0),
        _span("graph.build", 8.5, 9.0, 4),
        _span("job", 20.0, 21.0, -1, **{"pass": 1}),
    ]
    assert tracer.self_times(spans) == pytest.approx(
        [10 - 7 - 1.5, 7 - 2 - 0.5, 2, 0.5, 1.5 - 0.5, 0.5, 1])
    first, second = tracer.passes_of(spans).values()
    assert len(first) == 6 and len(second) == 1
    m = tracer._pass_metrics(first)
    assert m["solvers.pcg_s"] == pytest.approx(7.0)
    assert m["solvers.pcg_overhead_s"] == pytest.approx(7.0 - 2.0 - 0.5)
    assert m["solvers.pcg_iterations"] == 1
    assert m["solvers.matvec_flops"] == 2 * 10 * 3
    assert m["solvers.matvec_bytes"] == 12 * 10 + 16 * 4 * 3
    assert m["graph.load_s"] == pytest.approx(1.5)
    assert m["graph.parse_s"] == pytest.approx(1.0)
    assert m["trace.wall_s"] == pytest.approx(10.0)
    assert m["trace.layers_self_share"] == pytest.approx(1 - 1.5 / 10)
    merged = tracer.layer_metrics(spans)
    assert merged["trace.wall_s"] == pytest.approx((10.0 + 1.0) / 2)


def test_recorder_does_not_nest_a_span_in_one_of_the_same_name():
    rec = tracer.Recorder()
    outer = rec.open("solvers.project")
    assert rec.open("solvers.project") is None
    rec.close(None)
    rec.close(outer)
    assert [s.name for s in rec.spans] == ["solvers.project"]
    assert rec.stack == []


def test_untraced_runs_install_no_wrappers(tmp_path, monkeypatch):
    af = workloads.import_affinity()
    pristine = _functions(af)
    workloads.prepare("expander_sketch", 5, "tiny", tmp_path)
    seen = {}
    load_jobs = workloads.load_jobs

    def with_probe(workload, af_module, workdir):
        probe = workloads.Job("probe", lambda: seen.update(_functions(af)),
                              lambda _: None)
        return load_jobs(workload, af_module, workdir) + [probe]

    monkeypatch.setattr(workloads, "load_jobs", with_probe)
    result = phase.run_phase("expander_sketch", tmp_path, 0.0, trace=False)
    assert "layers" not in result
    assert seen == pristine


def test_tracing_restores_every_function_even_after_an_error():
    af = workloads.import_affinity()
    pristine = _functions(af)
    rec = tracer.Recorder()
    with pytest.raises(RuntimeError):
        with tracer.tracing(af, rec):
            traced = _functions(af)
            assert traced[("affinity.embeddings", "solve_laplacian")] \
                is not pristine[("affinity.embeddings", "solve_laplacian")]
            assert traced["AffinityTable.exact"] \
                is not pristine["AffinityTable.exact"]
            raise RuntimeError("boom")
    assert _functions(af) == pristine


def test_checks_reject_wrong_outputs():
    rng = np.random.default_rng(0)
    g = workloads.random_connected(rng, 40, 80, weighted=True)
    tables = workloads.exact_tables(g)
    out = {"edge_index": tables["pairs"], "edge_er": tables["er"].copy(),
           "edge_ht": tables["ht"].copy()}
    assert workloads.check_exact(out, tables) is None
    out["edge_ht"][3, 1] *= 1 + 1e-6
    assert "edge_ht" in workloads.check_exact(out, tables)

    ref = workloads.sampled_resistances(g, rng, direct=True, count=8)
    by_cg = workloads.sampled_resistances(g, np.random.default_rng(0),
                                          direct=False, count=8)
    np.testing.assert_allclose(by_cg["res"],
                               tables["er"][by_cg["pos"]], rtol=1e-8)
    np.testing.assert_allclose(ref["res"], tables["er"][ref["pos"]],
                               rtol=1e-9)
    sketch = {"edge_index": tables["pairs"], "edge_er": tables["er"].copy(),
              "edge_ht": tables["ht"].copy()}
    assert workloads.check_sketch(sketch, ref) is None
    sketch["edge_er"][ref["pos"][0]] *= 3.0
    assert "resistance" in workloads.check_sketch(sketch, ref)


def test_benchmark_json_names_the_metrics_the_code_prints():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == tracer.LAYER_METRICS


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "text_io",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
