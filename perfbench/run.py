#!/usr/bin/env python3
"""modcover benchmark: time to exact covering radii on four workloads.

    python3 perfbench/run.py --workload syndrome-scan --seed 1 --seconds 30 --trace 0

One closed-loop client sends each query after the previous answer returns.
modcover is imported from ``src/`` next to this directory; the thread
environment (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MODCOVER_THREADS) is left
as found and recorded.  The last line of output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics of tracing.LAYER_METRICS with ``--trace 1``.
See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MODCOVER_THREADS")
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import modcover\n"
    "print(time.perf_counter() - t)\n"
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def import_seconds() -> float:
    """Time to import modcover (numpy included) in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {var: os.environ.get(var) for var in THREAD_VARS}
    env.update(nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
               blas=f"{blas.get('name')} {blas.get('version')}", numpy=np.__version__,
               python=platform.python_version())
    return env


def tail(sorted_values: list[float], pct: int | None) -> float:
    """The workload's fixed tail percentile (nearest rank), or the maximum for
    workloads with fewer than twenty queries.  The run loop completes enough
    batches that at least ten samples lie beyond it."""
    n = len(sorted_values)
    if pct is None:
        return sorted_values[-1]
    if n * (100 - pct) < 1000:
        raise AssertionError(f"{n} samples leave fewer than ten beyond p{pct}")
    return sorted_values[math.ceil(pct * n / 100) - 1]


def load_modcover():
    sys.path.insert(0, str(SRC))
    import modcover.covering
    import modcover.families
    import modcover.linalg
    import modcover.ring

    return SimpleNamespace(linalg=modcover.linalg, covering=modcover.covering,
                           families=modcover.families, ring=modcover.ring)


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "modcover" / "__init__.py").is_file():
        print(f"error: modcover sources not found at {SRC / 'modcover'}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    import numpy as np
    from gate import Gate
    from tracing import LAYER_METRICS, Tracer, cpu_seconds, layer_metrics

    import_seconds()  # warm-up: the first probe after a checkout reads numpy from disk
    import_s = statistics.median(import_seconds() for _ in range(SETUP_REPEATS))
    mc = load_modcover()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(vars(mc))
    try:
        first = wl.batch(args.seed, 0)
        build_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            built = workloads.set_up(first, mc)
            build_s.append(time.perf_counter() - t0)
        build_med = statistics.median(build_s)
        setup_s = import_s + build_med
        workloads.attach(first, built)

        attempted, repeats, peak_kb = 0, 0, 0
        latencies, walls, cpus, problems, seen = [], [], [], [], set()
        queries = first
        loop_start = time.perf_counter()
        while True:
            outcomes = []
            cpu0, wall0 = cpu_seconds(), time.perf_counter()
            for q in queries:
                if tracer:
                    tracer.query = attempted + len(outcomes)
                t0 = time.perf_counter()
                try:
                    outcome = workloads.serve(q, built, wl.threads, mc)
                except Exception as exc:  # counted as a failed query
                    outcome = exc
                latencies.append(time.perf_counter() - t0)
                outcomes.append(outcome)
            walls.append(time.perf_counter() - wall0)
            cpus.append(cpu_seconds() - cpu0)
            peak_kb = max(peak_kb, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                          resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            # Checked between batches, untimed, so that only one batch of
            # answers is held and peak RSS does not grow with the query count.
            gate = Gate()
            for q, outcome in zip(queries, outcomes):
                if (reason := gate.check(q, outcome)) is not None:
                    problems.append((attempted, q, reason))
                key = hash((q.spec, q.metric, q.kind))
                repeats += key in seen
                seen.add(key)
                attempted += 1
            if wl.single_batch or (len(walls) >= wl.min_batches
                                   and time.perf_counter() - loop_start + walls[-1] > args.seconds):
                break
            queries = wl.batch(args.seed, len(walls))
            if tracer:  # set-up of later batches is neither timed nor traced
                tracer.paused = True
            workloads.set_up(queries, mc, built)
            workloads.attach(queries, built)
            if tracer:
                tracer.paused = False
    finally:
        if tracer:
            tracer.uninstall()
    repeat_share = repeats / attempted

    lat = sorted(latencies)
    tail_s = tail(lat, wl.tail_pct)
    tail_label = "max" if wl.tail_pct is None else f"p{wl.tail_pct}"
    env = environment(np)
    print(f"workload {wl.name} seed {args.seed} threads {wl.threads}: {len(walls)} batch(es), "
          f"{attempted} queries, {len(problems)} failed (failed_frac {len(problems) / attempted:.6f})")
    print(f"query_p50_ms over {len(lat)} samples; query_tail_ms is {tail_label}; "
          f"repeat share {repeat_share:.4f}; setup import {import_s:.4f} s + build {build_med:.4f} s")
    print("env " + json.dumps(env, sort_keys=True))
    for i, q, reason in problems[:10]:
        print(f"FAILED query {i} ({workloads.describe(q.spec)}, {q.kind}, {q.metric}): {reason}")

    if tracer:
        metrics = layer_metrics(tracer.spans, len(walls), SETUP_REPEATS)
        metrics["query.repeat_share"] = repeat_share
        metrics["setup.import_s"] = import_s
        metrics["setup.build_s"] = build_med
        metrics["trace.wall_s"] = statistics.fmean(walls)
        metrics["trace.overhead_s"] = tracer.overhead_s / len(walls)
        metrics["trace.spans"] = len(tracer.spans) / len(walls)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{wl.name}-seed{args.seed}.jsonl"
        tracer.write(path, {"workload": wl.name, "seed": args.seed, "env": env, "metrics": metrics})
        print(f"spans written to {path.relative_to(ROOT)}")
        units = LAYER_METRICS
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.fmean(walls),
            "query_p50_ms": statistics.median(lat) * 1e3,
            "query_tail_ms": tail_s * 1e3,
            "cpu_s": statistics.fmean(cpus),
            "peak_rss_mb": peak_kb / 1024,
        }
        units = END_TO_END
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
