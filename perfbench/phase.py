"""The timed phase of one benchmark run, in a process of its own.

    python3 perfbench/phase.py WORKLOAD WORKDIR SECONDS TRACE
    python3 perfbench/phase.py import      # print the package import time

Imports the package, builds the workload's jobs over the inputs in WORKDIR,
and runs passes over all jobs back to back (one client, closed loop) for
about SECONDS: at least one pass, and another only while it is expected to
end less than half a pass after SECONDS. Each job's output is checked outside
its timed region. Between jobs a fixed calibration kernel is timed, about
once per ``CALIBRATE_EVERY_S`` of job time, to measure the host's speed.

With TRACE 1 passes alternate untraced and traced (layer wrappers installed
for that pass only), so the tracing overhead is measured at the same host
speed; afterwards the first job runs once more, traced, with tracemalloc on.
The result goes to WORKDIR/phase-trace<TRACE>.json.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import tracer
import workloads

CALIBRATE_EVERY_S = 0.25
#: Median duration of ``Calibration.run`` on the reference host (2-vCPU
#: Xeon VM, OpenBLAS 0.3.31 Haswell kernels, 2 threads); times are reported
#: scaled to this speed.
REFERENCE_CALIBRATION_S = 0.018
#: At most this many calibrations in one gap between jobs.
CALIBRATE_MAX_BURST = 6


class Calibration:
    """A fixed mix of interpreter bytecode, memory-bound numpy, a sparse
    block product, a dense block product and a small dense pseudoinverse,
    roughly the kinds of work the workloads do, using no package code.
    Its duration moves with the host's speed and not with the package."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.vec = rng.random(1 << 20)
        rows, cols = rng.integers(0, 20_000, size=(2, 100_000))
        self.csr = sp.csr_matrix((rng.random(100_000), (rows, cols)),
                                 shape=(20_000, 20_000))
        self.block = rng.standard_normal((20_000, 24))
        self.small = rng.random((40, 40))
        self.samples: list[float] = []
        self.owed = 0.0

    def run(self) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(25_000):
            total += i * i
        for _ in range(2):
            (self.vec * 1.0001 + self.vec).sum()
        product = self.csr @ self.block
        product.T @ self.block
        np.linalg.pinv(self.small)
        self.samples.append(time.perf_counter() - start)

    def catch_up(self, job_seconds: float) -> None:
        """Calibrate once per ``CALIBRATE_EVERY_S`` of job time owed, so the
        samples are spread over the run in proportion to time."""
        self.owed += job_seconds
        burst = min(CALIBRATE_MAX_BURST, int(self.owed // CALIBRATE_EVERY_S))
        for _ in range(burst):
            self.run()
        self.owed = min(self.owed - burst * CALIBRATE_EVERY_S,
                        CALIBRATE_EVERY_S)


def clip(text: str, limit: int) -> str:
    """``text`` cut to about ``limit`` characters, keeping both ends (the
    solver's messages put the residual after a long list of columns)."""
    if len(text) <= limit:
        return text
    half = (limit - 5) // 2
    return f"{text[:half]} ... {text[-half:]}"


def _run_job(job, pass_no: int, rec) -> dict:
    span = rec.open(tracer.ROOT_SPAN, member=job.member, **{"pass": pass_no}) \
        if rec is not None else None
    error = output = None
    start = time.perf_counter()
    try:
        output = job.run()
    except Exception as exc:  # a failing job is recorded; the loop goes on
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if rec is not None:
        rec.close(span, failed=error is not None)
    problem = None
    if error is None:
        try:
            problem = job.check(output)
        except Exception as exc:  # unreadable output fails the check
            problem = f"check raised {type(exc).__name__}: {exc}"
    return {"member": job.member, "pass": pass_no, "seconds": seconds,
            "traced": rec is not None,
            "error": clip(error, 400) if error else None, "check": problem}


def timed_import():
    """Import the package; return it and the seconds the import took."""
    start = time.perf_counter()
    af = workloads.import_affinity()
    return af, time.perf_counter() - start


def run_phase(workload: str, workdir: Path, seconds: float,
              trace: bool) -> dict:
    af, import_s = timed_import()
    jobs = workloads.load_jobs(workload, af, workdir)
    calibration = Calibration()
    calibration.run()
    rec = tracer.Recorder() if trace else None
    records = []
    passes = 0
    begin = time.perf_counter()
    elapsed = 0.0
    # start another pass while it is expected to end less than half a pass
    # after the deadline; a traced run makes at least one pass of each kind
    while passes < (2 if trace else 1) \
            or elapsed + elapsed / passes / 2 < seconds:
        traced = trace and passes % 2 == 1
        with tracer.tracing(af, rec) if traced else nullcontext():
            for job in jobs:
                records.append(_run_job(job, passes, rec if traced else None))
                calibration.catch_up(records[-1]["seconds"])
        passes += 1
        elapsed = time.perf_counter() - begin
    result = {
        "import_s": import_s,
        "passes": passes,
        "records": records,
        "calibration_s": calibration.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if rec is not None:
        timed_spans = len(rec.spans)
        rec.track_memory = True
        with tracer.tracing(af, rec):
            records.append(_run_job(jobs[0], tracer.MEMORY_PASS, rec))
        result["layers"] = tracer.layer_metrics(rec.spans)
        result["self_table"] = tracer.self_table(rec.spans[:timed_spans])
    return result


def main(argv: list[str]) -> int:
    if argv == ["import"]:
        print(repr(timed_import()[1]))
        return 0
    workload, workdir, seconds, trace = argv
    workdir = Path(workdir)
    result = run_phase(workload, workdir, float(seconds), trace == "1")
    (workdir / f"phase-trace{trace}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
