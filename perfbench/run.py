"""Benchmark of the affinity package: end-to-end metrics per workload, or
per-layer metrics from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Set-up (input generation and references) is
repeated ``SETUP_REPEATS`` times in this process and the package import is
timed in ``IMPORT_REPEATS`` fresh processes; the timed phase runs in a child
process (``phase.py``) with as many BLAS threads as usable CPUs. Times are
scaled to a reference host speed measured by a calibration kernel
interleaved with the jobs (see ``phase.Calibration``); raw times are kept in
the record. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes in one child and prints the per-layer
metrics, including the tracing overhead. The last line of standard output is
one JSON object: correct, attempted, failed, metrics. A full record with the
environment and every job goes to ``.perfbench_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import phase
import tracer
import workloads

SETUP_REPEATS = 5
#: Fresh processes that time the package import (the timed phase's own
#: import is one of them).
IMPORT_REPEATS = 3
#: The whole run, children included, must end well inside three minutes.
RUN_BUDGET_S = 170.0
HERE = Path(__file__).resolve().parent
RESULTS = workloads.ROOT / ".perfbench_results"
WORK = workloads.ROOT / ".perfbench_work"

END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s",
              "job_p95_s": "s", "peak_rss_mb": "MB", "ok_share": "share"}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def blas_threads() -> int:
    """BLAS threads for the timed phase: the CPUs this process may use."""
    return len(os.sched_getaffinity(0))


def _git_commit() -> str | None:
    if not (workloads.ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(workloads.ROOT), "rev-parse",
                               "HEAD"], capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((workloads.SRC / "affinity").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {key: blas.get(key) for key in
                 ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _child(args: list[str], deadline: float) -> str:
    """Run ``phase.py`` with ``args`` and BLAS threads capped; return its
    standard output."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads())
    cmd = [sys.executable, str(HERE / "phase.py"), *args]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"phase.py {args[0]} passed the run's "
                             f"{RUN_BUDGET_S:g} s budget") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"phase.py {args[0]} exited with "
                             f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc.stdout


def _pass_walls(records: list[dict]) -> list[float]:
    walls: dict[int, float] = {}
    for rec in records:
        walls[rec["pass"]] = walls.get(rec["pass"], 0.0) + rec["seconds"]
    return [walls[k] for k in sorted(walls)]


def _failed(rec: dict) -> bool:
    return rec["error"] is not None or rec["check"] is not None


def end_to_end(records: list[dict], setup_s: float, peak_rss_mb: float,
               scale: float) -> dict:
    """The end-to-end metrics of untraced timed ``records``, with every time
    multiplied by ``scale``."""
    p50, p95 = np.percentile([rec["seconds"] for rec in records], [50, 95])
    return {
        "setup_s": setup_s * scale,
        "wall_s": statistics.median(_pass_walls(records)) * scale,
        "job_p50_s": float(p50) * scale,
        "job_p95_s": float(p95) * scale,
        "peak_rss_mb": peak_rss_mb,
        "ok_share": 1.0 - sum(map(_failed, records)) / len(records),
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  size: str = "full") -> dict:
    """Set up, run the timed phase and return the full result record."""
    if workload not in workloads.WORKLOADS:
        raise BenchmarkError(f"unknown workload {workload!r}; choose from "
                             f"{', '.join(workloads.WORKLOADS)}")
    if not (workloads.SRC / "affinity" / "__init__.py").is_file():
        raise BenchmarkError(f"no package source under {workloads.SRC}")
    deadline = time.monotonic() + RUN_BUDGET_S
    workdir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            start = time.perf_counter()
            workloads.prepare(workload, seed, size, workdir)
            setups.append(time.perf_counter() - start)
        imports = [float(_child(["import"], deadline))
                   for _ in range(IMPORT_REPEATS - 1)]
        _child([workload, str(workdir), repr(seconds), str(int(trace))],
               deadline)
        timed = json.loads((workdir / f"phase-trace{int(trace)}.json")
                           .read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    imports.append(timed["import_s"])

    records = timed["records"]
    untraced = [rec for rec in records if not rec["traced"]]
    calibration_s = statistics.median(timed["calibration_s"])
    scale = phase.REFERENCE_CALIBRATION_S / calibration_s
    setup_s = statistics.median(setups) + statistics.median(imports)
    raw = end_to_end(untraced, setup_s, timed["peak_rss_mb"], 1.0)
    result = {
        "workload": workload, "seed": seed, "size": size, "seconds": seconds,
        "trace": int(trace), "environment": environment(),
        "setup": {"repeats_s": setups, "imports_s": imports},
        "host_speed": {"calibration_median_s": calibration_s,
                       "calibrations": len(timed["calibration_s"]),
                       "reference_s": phase.REFERENCE_CALIBRATION_S,
                       "scale": scale},
        "passes": len(_pass_walls(untraced)), "jobs": len(untraced),
        "failed_share": 1.0 - raw["ok_share"],
        "end_to_end": end_to_end(untraced, setup_s, timed["peak_rss_mb"],
                                 scale),
        "end_to_end_raw": raw,
        "correct": all(rec["check"] is None for rec in records),
        "attempted": len(records),
        "failed": sum(map(_failed, records)),
        "failures": _distinct_failures(records),
        "records": records,
    }
    if trace:
        traced_walls = _pass_walls([rec for rec in records if rec["traced"]
                                    and rec["pass"] != tracer.MEMORY_PASS])
        layers = dict(timed["layers"])
        layers["trace.overhead_s"] = statistics.median(traced_walls) \
            - raw["wall_s"]
        result["layers"] = layers
        result["self_table"] = timed["self_table"]
        result["traced_passes"] = len(traced_walls)
    return result


def _distinct_failures(records: list[dict]) -> list[dict]:
    seen: dict[tuple, dict] = {}
    for rec in records:
        if _failed(rec):
            key = (rec["member"], rec["error"], rec["check"])
            entry = seen.setdefault(key, {"member": rec["member"],
                                          "error": rec["error"],
                                          "check": rec["check"], "count": 0})
            entry["count"] += 1
    return list(seen.values())


def report(result: dict) -> list[str]:
    """Human-readable lines: metrics with units and job counts."""
    e2e = result["end_to_end"]
    jobs = result["jobs"]
    raw = result["end_to_end_raw"]
    speed = result["host_speed"]
    lines = [
        f"perfbench workload={result['workload']} seed={result['seed']} "
        f"size={result['size']} seconds={result['seconds']:g} "
        f"trace={result['trace']}",
        f"environment {json.dumps(result['environment'], sort_keys=True)}",
        f"host speed   calibration median {speed['calibration_median_s']:.5f}"
        f" s over {speed['calibrations']} samples, reference "
        f"{speed['reference_s']:g} s: times below are raw x "
        f"{speed['scale']:.4f}",
        f"setup_s      {e2e['setup_s']:10.4f} s      median of "
        f"{len(result['setup']['repeats_s'])} set-ups plus median of "
        f"{len(result['setup']['imports_s'])} package imports "
        f"(raw {raw['setup_s']:.4f} s)",
        f"wall_s       {e2e['wall_s']:10.4f} s      median of "
        f"{result['passes']} passes over {jobs // result['passes']} jobs "
        f"(raw {raw['wall_s']:.4f} s)",
        f"job_p50_s    {e2e['job_p50_s']:10.4f} s      over {jobs} jobs "
        f"(raw {raw['job_p50_s']:.4f} s)",
        f"job_p95_s    {e2e['job_p95_s']:10.4f} s      over {jobs} jobs "
        f"(raw {raw['job_p95_s']:.4f} s)",
        f"peak_rss_mb  {e2e['peak_rss_mb']:10.1f} MB     timed-phase process",
        f"failed_share {result['failed_share']:10.4f}        "
        f"{round(result['failed_share'] * jobs)} of {jobs} jobs failed "
        f"(ok_share {e2e['ok_share']:.4f})",
    ]
    for fail in result["failures"]:
        lines.append(f"failure      {fail['member']} x{fail['count']}: "
                     f"{phase.clip(fail['error'] or fail['check'], 200)}")
    if "layers" in result:
        lines.append(f"traced run: {result['traced_passes']} traced passes "
                     f"alternating with untraced ones; per-layer values are "
                     f"raw medians per pass")
        for name, unit in tracer.LAYER_METRICS.items():
            lines.append(f"  {name:<30} {result['layers'][name]:14.6g} {unit}")
        lines.append("  self time per span (all traced passes):")
        for name, row in sorted(result["self_table"].items(),
                                key=lambda kv: -kv[1]["self_s"]):
            lines.append(f"    {name:<24} calls={row['calls']:<7} "
                         f"total={row['total_s']:9.4f} s "
                         f"self={row['self_s']:9.4f} s "
                         f"failed={row['failed']}")
    return lines


def summary_line(result: dict) -> str:
    if "layers" in result:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in tracer.LAYER_METRICS.items()}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1))
    for line in report(result):
        print(line)
    print(f"results {out.relative_to(workloads.ROOT)}")
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
