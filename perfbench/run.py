"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload stereo_pesq --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:
set-up (median of three cold set-ups), then a closed loop for
``--seconds`` of job time, then the output checks and the quality
probes outside the timed window. Times are wall-clock seconds.
``--trace 1`` gives the per-layer metrics instead: one
untimed set-up, then a fixed number of rounds (sized from ``--seconds``)
alternating untraced and traced, so the traced counts repeat exactly
for the same arguments.

Human-readable detail (host record, set-up breakdown, layer table)
goes to standard output first; the last line is the JSON result. The
exit code is non-zero when any job or output check failed, when
``src/repro`` is missing, or when ``REPRO_FAULTS`` is set.
"""

from __future__ import annotations

import argparse
import gc
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
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 3
ROUND_NOMINAL_S = {"stereo_pesq": 2.2, "mono_mrc": 3.5, "service_fading": 0.7}
"""Rough untraced seconds per round on a 2-CPU host; sizes the traced run."""
ENV_PREFIXES = ("OPENBLAS_", "OMP_", "REPRO_")

END_TO_END_UNITS = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "jobs_per_s": "1/s",
    "job_latency_p50_s": "s",
    "job_latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "pesq_mean": "MOS",
    "stereo_lock_ratio": "ratio",
    "ber_mean": "ratio",
}

SELF_TIME_LAYERS = (
    "dsp.pll", "fm.pilot", "dsp.spectrum", "audio.pesq", "engine.batch_backend",
    "dsp.filters", "dsp.resample", "channel.link", "channel.noise", "channel.fading",
    "fm.demodulator", "fm.stereo", "receiver.fm_receiver", "data", "dsp.goertzel",
    "engine.planner", "engine.runner",
    "engine.launcher", "engine.journal", "engine.store", "engine.cache",
)
COUNT_METRICS = (
    "dsp.pll.samples", "audio.pesq.calls", "dsp.filters.calls", "dsp.filters.samples",
    "engine.journal.records", "engine.store.loads", "engine.store.saves",
    "engine.store.bytes",
)
CACHE_COUNTERS = ("hits", "misses", "disk_hits", "syntheses")
UNCOVERED = {
    "stereo_pesq": "benchmark client loop between sweeps",
    "mono_mrc": "benchmark client loop and BER table bookkeeping",
    "service_fading": (
        "asyncio loop and executor hand-off inside SweepService's async "
        "submit/fetch (coroutines are not wrapped) and the client loop"
    ),
}


def layer_unit(name: str) -> str:
    if name.endswith("points_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "efficiency", "coverage")):
        return "ratio"
    return "bytes" if name.endswith("bytes") else "count"


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("stereo_pesq", "mono_mrc", "service_fading"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def host_record() -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith(ENV_PREFIXES)},
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def tail(latencies: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, n) of the highest percentile with at least ten
    samples beyond it — or ``(n - 1) // 2`` when there are fewer than 21,
    so the tail never reads below the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(10, (n - 1) // 2)
    index = n - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / n, n


def time_imports(modules: str) -> float:
    """Wall time of a fresh interpreter importing the workload's modules."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {modules}"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - started


def cold_start(workload) -> Tuple[float, object]:
    """Fresh caches (ambient, DSP plans, store), then the first job."""
    from repro.dsp.plan_cache import clear_plan_cache

    clear_plan_cache()
    gc.collect()
    started = time.perf_counter()
    workload.start()
    job = workload.first_job()
    return time.perf_counter() - started, job


def run_jobs(workload, first_index: int, count: int, failures: List[str]) -> list:
    jobs = []
    for index in range(first_index, first_index + count):
        try:
            jobs.append(workload.job(index))
        except Exception:
            failures.append(f"job {index} raised:\n{traceback.format_exc()}")
    return jobs


def measure(args, workload) -> Tuple[Dict[str, float], List[str], int]:
    """End-to-end metrics, tracing off."""
    from workloads import quality_probes

    failures: List[str] = []
    setups = []
    checked = []
    for _ in range(SETUP_REPEATS):
        imports_s = time_imports(workload.imports)
        start_s, job = cold_start(workload)
        setups.append(imports_s + start_s)
        checked.append(job)
        print(f"setup: imports {imports_s:.3f} s + start and first job {start_s:.3f} s")

    jobs, index, busy = [], 0, 0.0
    while busy < args.seconds:
        started = time.perf_counter()
        jobs += run_jobs(workload, index, 1, failures)
        busy += time.perf_counter() - started
        index += 1
    # Read before the checks and probes, whose reruns would add their own memory.
    rss_mb = peak_rss_mb()
    attempted = SETUP_REPEATS + index + 1  # set-up jobs, timed jobs, the probes

    failures += workload.check(checked + jobs)
    probe = quality_probes(WORK_ROOT, [SRC, HERE])
    failures += probe.failures
    if not jobs:
        failures.append("no job completed in the timed window")
        jobs = checked
    latencies = [job.latency_s for job in jobs]
    tail_s, tail_pct, n = tail(latencies)
    print(f"timed {busy:.3f} s of jobs, {len(jobs)} jobs; tail = p{tail_pct:.1f} of n={n}")
    metrics = {
        "setup_s": statistics.median(setups),
        "points_per_s": sum(job.points for job in jobs) / busy,
        "jobs_per_s": len(jobs) / busy,
        "job_latency_p50_s": statistics.median(latencies),
        "job_latency_tail_s": tail_s,
        "peak_rss_mb": rss_mb,
        "pesq_mean": probe.pesq_mean,
        "stereo_lock_ratio": probe.stereo_lock_ratio,
        "ber_mean": probe.ber_mean,
    }
    return metrics, failures, attempted


def cache_totals(jobs) -> Dict[str, int]:
    totals = dict.fromkeys(CACHE_COUNTERS, 0)
    for job in jobs:
        stats = job.cache_stats or {}
        for key in CACHE_COUNTERS:
            totals[key] += stats.get(key, 0)
        if "syntheses" not in stats:
            # A cache without a disk store synthesizes on every miss.
            totals["syntheses"] += stats.get("misses", 0)
    return totals


def measure_layers(args, workload) -> Tuple[Dict[str, float], List[str], int]:
    """Per-layer metrics from alternating untraced and traced rounds."""
    from spans import Tracer, import_all_modules, merge_summaries, read_worker_dumps
    from workloads import quality_probes

    import_all_modules()
    dump_dir = tempfile.mkdtemp(prefix="worker-spans-")
    tracer = Tracer(dump_dir=dump_dir)
    failures: List[str] = []
    _, setup_job = cold_start(workload)
    rounds = max(1, int(args.seconds / (2 * ROUND_NOMINAL_S[args.workload])))
    per_round = workload.round_jobs
    untraced, traced = [], []
    walls = {"untraced": 0.0, "traced": 0.0}
    journal_bytes = 0
    index = 0
    for _ in range(rounds):
        for mode in ("untraced", "traced"):
            journal_before = workload.journal_bytes() if mode == "traced" else 0
            if mode == "traced":
                tracer.install()
            started = time.perf_counter()
            try:
                jobs = run_jobs(workload, index, per_round, failures)
            finally:
                walls[mode] += time.perf_counter() - started
                tracer.uninstall()
            index += per_round
            (traced if mode == "traced" else untraced).extend(jobs)
            if mode == "traced":
                journal_bytes += workload.journal_bytes() - journal_before
    attempted = 1 + 2 * rounds * per_round + 1  # set-up job, rounds, the probes
    failures += workload.check([setup_job] + untraced + traced)
    failures += quality_probes(WORK_ROOT, [SRC, HERE]).failures

    parent = tracer.summary()
    workers = read_worker_dumps(dump_dir)
    merged = merge_summaries([parent] + workers)
    metrics: Dict[str, float] = {}
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            value for key, value in merged["self_s"].items()
            if key == layer or key.startswith(layer + ".")
        )
    for name in COUNT_METRICS:
        metrics[name] = merged["counts"].get(name, 0)
    metrics["engine.journal.bytes"] = journal_bytes

    reports = [job.report for job in traced if job.report is not None]
    launches = tracer.span_starts("engine.launcher", "launch_sweep")
    metrics["engine.service.queue_wait_s"] = sum(
        launch - job.submitted_at for launch, job in zip(launches, traced) if job.report
    )
    wall = sum(r.wall_s for r in reports)
    compute = sum(r.result.elapsed_s for r in reports)
    workers_wall = sum(r.wall_s * r.n_workers for r in reports)
    metrics.update({
        "engine.launcher.wall_s": wall,
        "engine.launcher.shard_compute_s": compute,
        "engine.launcher.parallel_efficiency": compute / workers_wall if workers_wall else 0.0,
        "engine.launcher.shards": sum(r.n_shards for r in reports),
        "engine.launcher.retries": sum(r.retries for r in reports),
        "engine.launcher.failures": sum(r.failures for r in reports),
        "engine.process_backend.warm_s": merged["inclusive_s"].get(
            "engine.process_backend:warm_store", 0.0),
        "engine.process_backend.warm_syntheses": sum(r.warm_syntheses for r in reports),
    })
    cache = cache_totals([setup_job] + traced)
    for key in CACHE_COUNTERS:
        metrics[f"engine.cache.{key}"] = cache[key]
    lookups = cache["hits"] + cache["misses"]
    metrics["engine.cache.hit_ratio"] = cache["hits"] / lookups if lookups else 0.0

    covered = sum(parent["self_s"].values())
    metrics.update({
        "trace.untraced_points_per_s": sum(j.points for j in untraced) / walls["untraced"],
        "trace.traced_points_per_s": sum(j.points for j in traced) / walls["traced"],
        "trace.coverage": covered / walls["traced"],
    })
    print(f"traced {rounds} rounds of {per_round} job(s); {len(workers)} worker dumps")
    print(f"coverage {metrics['trace.coverage']:.3f}: uncovered "
          f"{walls['traced'] - covered:.3f} s of {walls['traced']:.3f} s = "
          f"{UNCOVERED[args.workload]}")
    top = sorted(merged["self_s"].items(), key=lambda item: -item[1])[:12]
    for layer, seconds in top:
        print(f"  {layer:32s} self {seconds:8.4f} s  spans {merged['spans'][layer]}")
    return metrics, failures, attempted


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("REPRO_FAULTS", "").strip():
        print("perfbench: refusing to run with REPRO_FAULTS set", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    # Everything the program spills (stores, journals, temp files) stays here.
    tempfile.tempdir = work_dir
    host = host_record()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, work_dir)
    try:
        if args.trace:
            metrics, failures, attempted = measure_layers(args, workload)
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics, failures, attempted = measure(args, workload)
            units = END_TO_END_UNITS
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    host["loadavg_end"] = os.getloadavg()
    print("host:", json.dumps(host))
    for failure in failures:
        print("FAILED:", failure)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    sys.stdout.flush()
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
