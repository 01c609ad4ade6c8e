"""Run one workload in a closed loop, check every output, measure.

An untraced run measures the end-to-end metrics of ``BENCHMARK.json``;
a traced run measures its per-layer metrics.  The two never share a
process, so tracing cannot leak into the end-to-end numbers.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import typing

from repro.experiments import characterization, run_table1, run_table2

import workloads
import hostspeed
from tracing import StackSampler, Tracer
from workloads import JobResult, Workload

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: run-time files (journals, traces); ignored by git
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: untimed jobs, on seeds disjoint from the measured ones, so lazy
#: set-up and caches are done before the clock starts
WARMUP_JOBS = 2
#: fresh interpreters timed for ``setup_s`` (the median is reported)
SETUP_RUNS = 5

_SETUP_CODE = """\
import sys, time
sys.path[:0] = [{src!r}, {bench!r}]
import hostspeed
hostspeed.setup_reference_s()
before = hostspeed.setup_reference_s()
started = time.perf_counter()
import workloads
workloads.characterization()
elapsed = time.perf_counter() - started
print(hostspeed.scaled(elapsed, before, hostspeed.setup_reference_s(),
                       hostspeed.NOMINAL_SETUP_S))
"""


def _guarded(call: typing.Callable[..., JobResult], *args) -> JobResult:
    """Run one job; an exception is a failed job, not a failed run."""
    try:
        return call(*args)
    except Exception as error:
        traceback.print_exc(file=sys.stderr)
        message = f"{type(error).__name__}: {error}"
        return JobResult(0, ("error", message), [message], {})


def sim_digest(results: typing.Sequence[JobResult]) -> str:
    """SHA-256 over every simulated cycle count, energy and outcome."""
    hasher = hashlib.sha256()
    for result in results:
        hasher.update(repr(result.record).encode())
    return hasher.hexdigest()


def _digest_prefix(workload: Workload, run_seed: str,
                   results: typing.List[JobResult]) -> str:
    """Digest of the workload's fixed job prefix; jobs a slow run did
    not reach are run now, untimed, and join *results*."""
    while len(results) < workload.digest_jobs:
        results.append(_guarded(workload.job, run_seed, len(results)))
    return sim_digest(results[:workload.digest_jobs])


def setup_seconds() -> float:
    """Median time, over fresh interpreters, to import the workloads'
    modules and run the shared characterisation (nominal host)."""
    code = _SETUP_CODE.format(src=SRC, bench=BENCH_DIR)
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=120)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def _own_peak_kib() -> int:
    """This process's peak resident memory in KiB (Linux ``VmHWM``).

    Not ``ru_maxrss``: Linux carries that across ``exec``, so a process
    started by a larger one would report its starter's memory."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child
    (the campaign's pool workers, forked from this process).  Both are
    peaks over the process's life, so a process runs one workload and
    reads this right after its timed loop, before the checks and the
    set-up interpreters."""
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (_own_peak_kib() + child) / 1024.0


def accuracy() -> typing.Tuple[typing.Dict[str, float], typing.List[str]]:
    """Tables 1 and 2 on the paper's evaluation script: the three
    error magnitudes against gate level, and the paper's orderings."""
    table1, table2 = run_table1(), run_table2()
    gate = table2.row("Gate-level estimation").energy_pj
    layer1 = table2.row("TL layer 1 estimation")
    layer2 = table2.row("TL layer 2 estimation")
    problems = []
    if not layer1.energy_pj < gate < layer2.energy_pj:
        problems.append(f"Table 2 ordering broken: L1 {layer1.energy_pj}, "
                        f"gate {gate}, L2 {layer2.energy_pj} pJ")
    if (table1.row("Layer one model").cycles
            != table1.row("Gate-level model").cycles):
        problems.append("Table 1: layer 1 is not cycle-exact")
    return {
        "l1_energy_abs_err_pct": abs(layer1.error_percent),
        "l2_energy_abs_err_pct": abs(layer2.error_percent),
        "l2_cycle_abs_err_pct":
            abs(table1.row("Layer two model").error_percent),
    }, problems


def _timed(call: typing.Callable[..., JobResult], *args,
           during: typing.Optional[typing.ContextManager] = None
           ) -> typing.Tuple[JobResult, float]:
    """One job, run inside *during*, and its time on the nominal host
    (see hostspeed); the reference loops run outside *during*."""
    before = hostspeed.reference_s()
    with during or contextlib.nullcontext():
        began = time.perf_counter()
        result = _guarded(call, *args)
        elapsed = time.perf_counter() - began
    return result, hostspeed.scaled(elapsed, before,
                                    hostspeed.reference_s())


@contextlib.contextmanager
def _tracing(sampler: StackSampler, tracer: Tracer) -> typing.Iterator[None]:
    with sampler, tracer.span("job"):
        yield


def _closed_loop(workload: Workload, run_seed: str, seconds: float
                 ) -> typing.Tuple[typing.List[JobResult],
                                   typing.List[float]]:
    """Jobs back to back until *seconds* of wall time have passed;
    returns the results and each job's time on the nominal host.  One
    reference timing sits between consecutive jobs."""
    results: typing.List[JobResult] = []
    latencies: typing.List[float] = []
    deadline = time.perf_counter() + seconds
    before = hostspeed.reference_s()
    while time.perf_counter() < deadline:
        began = time.perf_counter()
        results.append(_guarded(workload.job, run_seed, len(results)))
        elapsed = time.perf_counter() - began
        after = hostspeed.reference_s()
        latencies.append(hostspeed.scaled(elapsed, before, after))
        before = after
    return results, latencies


def _untraced(workload: Workload, run_seed: str, seconds: float
              ) -> typing.Tuple[typing.Dict[str, float], list, str]:
    results, latencies = _closed_loop(workload, run_seed, seconds)
    metrics = {
        "txns_per_s": (sum(result.txns for result in results)
                       / sum(latencies)),
        "job_p50_ms": 1e3 * statistics.median(latencies),
        "peak_rss_mb": peak_rss_mb(),
    }
    digest = _digest_prefix(workload, run_seed, results)
    rerun = _guarded(workload.rerun, run_seed, 0)
    if rerun.record != results[0].record:
        rerun.problems.append("job 0 gave different results when rerun")
    results.append(rerun)
    table_metrics, table_problems = accuracy()
    metrics.update(table_metrics)
    # Tables 1-2 count as one more checked job
    results.append(JobResult(0, (), table_problems, {}))
    metrics["setup_s"] = setup_seconds()
    return metrics, results, digest


def _traced(workload: Workload, run_seed: str, seconds: float,
            trace_out: str) -> typing.Tuple[typing.Dict[str, float],
                                             list, str]:
    # each job runs untraced and traced, back to back: both see the
    # same host speed, so their difference is the tracing overhead.
    # The second of two identical runs reads about 2% slower, so the
    # order alternates from job to job and that bias cancels.
    jobs = max(2, round(workload.trace_rate * seconds))
    tracer = Tracer(True)
    sampler = StackSampler(os.path.join(SRC, "repro"))
    base, traced = [], []
    untraced_s = traced_s = 0.0
    for index in range(jobs):
        tracer.job = index
        runs = {}
        for with_trace in ((False, True) if index % 2 == 0
                           else (True, False)):
            runs[with_trace] = (
                _timed(workload.trace_job, run_seed, index, tracer,
                       during=_tracing(sampler, tracer)) if with_trace
                else _timed(workload.trace_job, run_seed, index))
        (result, elapsed), (traced_result, traced_elapsed) = (runs[False],
                                                              runs[True])
        base.append(result)
        untraced_s += elapsed
        traced.append(traced_result)
        traced_s += traced_elapsed
        if traced_result.record != result.record:
            traced_result.problems.append(
                f"job {index} changed under tracing")

    measured: typing.Dict[str, float] = {
        f"{package}.self_pct": share
        for package, share in sampler.shares_pct().items()}
    for result in base:
        for name, count in result.counts.items():
            measured[name] = measured.get(name, 0) + count
    measured.update(workload.layer_metrics(run_seed, tracer, base))
    measured["bench.trace_overhead_pct"] = 100.0 * (traced_s / untraced_s
                                                    - 1)
    expected = {name for name, (_, names) in
                workloads.LAYER_METRICS.items() if workload.name in names}
    if measured.keys() != expected and not any(r.problems for r in base):
        raise RuntimeError(f"{workload.name} measured "
                           f"{sorted(measured.keys() ^ expected)} "
                           f"out of line with LAYER_METRICS")

    with open(trace_out, "w", encoding="utf-8") as handle:
        json.dump({"workload": workload.name, "seed": run_seed,
                   "jobs": jobs, "untraced_s": untraced_s,
                   "traced_s": traced_s, "samples": dict(sampler.counts),
                   "span_summary": tracer.summary(),
                   "metrics": measured,
                   "spans": tracer.spans}, handle)
    digest = _digest_prefix(workload, run_seed, base)
    return measured, base + traced, digest


def trace_path(name: str, seed: int) -> str:
    """The file a traced run of workload *name* on *seed* writes."""
    return os.path.join(OUT_DIR, f"trace-{name}-{seed}.json")


def run_workload(name: str, seed: int, seconds: float,
                 wanted: typing.Sequence[dict], trace: bool) -> dict:
    """One benchmark run reporting the *wanted* metrics (BENCHMARK.json
    entries); returns the result record ``run.py`` prints."""
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{name}-", dir=OUT_DIR)
    try:
        workload = workloads.WORKLOADS[name](workdir)
        characterization()
        job = workload.trace_job if trace else workload.job
        warmups = [_guarded(job, f"warmup-{seed}", index)
                   for index in range(WARMUP_JOBS)]
        run_seed = str(seed)
        if trace:
            measured, results, digest = _traced(workload, run_seed, seconds,
                                                trace_path(name, seed))
        else:
            measured, results, digest = _untraced(workload, run_seed,
                                                  seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    names = {metric["name"] for metric in wanted}
    if measured.keys() - names or (not trace and measured.keys() != names):
        raise RuntimeError(f"{name} measured {sorted(measured)}, but "
                           f"BENCHMARK.json lists {sorted(names)}")
    results = warmups + results
    problems = [problem for result in results
                for problem in result.problems]
    failed = sum(1 for result in results if result.problems)
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0, "attempted": len(results),
        "failed": failed,
        "metrics": {metric["name"]: {"value": measured.get(metric["name"],
                                                           0.0),
                                     "unit": metric["unit"]}
                    for metric in wanted},
        "sim_digest": digest,
        "problems": problems[:20],
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
    }
