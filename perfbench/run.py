"""Run one benchmark workload and print its metrics.

Usage::

    python3 perfbench/run.py --workload substring-sparse --seed 1 --seconds 10 --trace 0

Steps, in order (after pinning the process to one CPU, see
:func:`pin_to_one_cpu`):

1. Generate the workload's inputs from ``--seed`` (untimed).
2. Set the service up :data:`SETUP_REPEATS` times (build, save, load
   memory-mapped, start the service) and keep the last; ``setup_s`` is
   the median set-up wall time.
3. Warm up with the workload's warm-up request count (discarded).
4. Measure ``--seconds`` seconds of closed-loop load, untraced.  ``qps``
   is the median over the phase's time windows
   (:meth:`perfbench.load.Phase.window_qps`).
5. ``--trace 1`` only: install the span wrappers and measure another
   ``--seconds`` seconds, traced; the spans give the per-layer metrics and
   are written to ``perfbench/out/``.
6. Check the answers of a seeded share of the stream indices (the
   workload's ``check_rate``) against the brute-force oracle.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: every end-to-end metric of
``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  A wrong answer prints ``"correct": false`` and exits 1.
Without the ``src/repro`` sources next to this directory the run exits 2
and prints no result.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Upper bound on the request rate, used to size the request stream.
MAX_RATE = 4000


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _service_counters(deployment: Any) -> Dict[str, float]:
    stats = deployment.service.stats()
    hits, misses, evictions = deployment.cache_totals()
    served = deployment.served
    return {
        "submitted": stats["submitted"],
        "deduplicated": stats["deduplicated"],
        "rejected": stats["rejected"],
        "batches": stats["batches"],
        "batched": stats["mean_batch_size"] * stats["batches"],
        "hits": hits,
        "misses": misses,
        "evictions": evictions,
        "failovers": served.stats()["failovers"] if deployment.workload.replicated else 0,
    }


def _counter_metrics(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    delta = {name: after[name] - before[name] for name in before}
    lookups = delta["hits"] + delta["misses"]
    return {
        "service.batch_size.mean": delta["batched"] / delta["batches"] if delta["batches"] else 0.0,
        "service.dedupe_ratio": (
            delta["deduplicated"] / delta["submitted"] if delta["submitted"] else 0.0
        ),
        "service.rejected_total": float(delta["rejected"]),
        "cache.hit_rate": delta["hits"] / lookups if lookups else 0.0,
        "cache.evictions_total": float(delta["evictions"]),
        "replicas.failovers_total": float(delta["failovers"]),
    }


async def run(args: argparse.Namespace) -> Tuple[Dict[str, Any], List[str], List[str]]:
    """Run the workload; returns the result object, report lines, problems."""
    from perfbench import layers
    from perfbench.check import AnswerSample, Oracle, check_answers
    from perfbench.load import Cursor, run_phase
    from perfbench.spans import SpanRecorder, dump
    from perfbench.streams import sub_seeds
    from perfbench.workloads import TAU_MIN, WORKLOADS, Deployment

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    phases = 2 if args.trace else 1
    inputs = workload.generate(args.seed, workload.warmup + int(phases * args.seconds * MAX_RATE))
    recorder = SpanRecorder() if args.trace else None
    if recorder is not None:
        layers.install_build_tracing(recorder)

    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=out))
    report: List[str] = []
    try:
        setup_seconds: List[float] = []
        deployment: Optional[Deployment] = None
        for repeat in range(SETUP_REPEATS):
            if deployment is not None:
                await deployment.close()
                shutil.rmtree(deployment.workdir)
            deployment = None
            gc.collect()
            candidate = Deployment(workload, inputs, workdir / f"setup{repeat}", recorder)
            started = perf_counter()
            await candidate.start()
            setup_seconds.append(perf_counter() - started)
            deployment = candidate
        assert deployment is not None
        index_mb = deployment.index_bytes() / 2**20
        setup_spans = recorder.take() if recorder is not None else []

        cursor = Cursor()
        # The workloads draw their inputs from the first three sub-seeds.
        sample = AnswerSample(
            workload.check_rate, sub_seeds(args.seed, 4)[3], len(inputs.stream)
        )
        warmup = await run_phase(deployment, cursor, sample, requests=workload.warmup)
        gc.collect()
        measured = await run_phase(deployment, cursor, sample, seconds=args.seconds)
        phases_run = [warmup, measured]
        per_layer: Dict[str, float] = {}
        if recorder is not None:
            layers.install_query_tracing(recorder, deployment)
            gc.collect()
            before = _service_counters(deployment)
            traced = await run_phase(
                deployment, cursor, sample, seconds=args.seconds, recorder=recorder
            )
            phases_run.append(traced)
            counters = _counter_metrics(before, _service_counters(deployment))
            phase_spans = recorder.take()
            dump(setup_spans + phase_spans, out / f"spans-{args.workload}-{args.seed}.json")
            per_layer.update(layers.build_metrics(setup_spans))
            per_layer.update(layers.load_and_swap_metrics(setup_spans, phase_spans))
            per_layer.update(layers.request_metrics(phase_spans))
            per_layer.update(counters)
            per_layer["swap_p50_ms"] = layers.percentile(
                [seconds * 1000.0 for seconds in deployment.swap_seconds], 50
            )
            per_layer["trace.overhead_ratio"] = statistics.median(
                traced.window_qps()
            ) / statistics.median(measured.window_qps())
            report.append(
                f"traced phase: {traced.completed} requests, {traced.qps:.1f} req/s, "
                f"{len(phase_spans)} spans"
            )
        checked = perf_counter()
        problems = check_answers(
            sample.items, inputs.stream, Oracle(inputs.versions, TAU_MIN), deployment.swaps
        )
        check_seconds = perf_counter() - checked
        swap_ms = [seconds * 1000.0 for seconds in deployment.swap_seconds]
        await deployment.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latencies_ms = [seconds * 1000.0 for seconds in measured.latencies]
    windows = measured.window_qps()
    attempted = sum(phase.attempted for phase in phases_run)
    failed = sum(phase.failed for phase in phases_run)
    end_to_end = {
        "setup_s": statistics.median(setup_seconds),
        "qps": statistics.median(windows),
        "latency_p50_ms": layers.percentile(latencies_ms, 50),
        "index_mb": index_mb,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # The tail of the untraced phase is reported, not gated: on a shared
    # 2-vCPU machine its run-to-run spread exceeds any usable bound.
    per_layer["latency_p99_ms"] = layers.percentile(latencies_ms, 99)
    samples = {
        "setup_s": len(setup_seconds),
        "qps": len(windows),
        "latency_p50_ms": len(latencies_ms),
        "latency_p99_ms": len(latencies_ms),
    }
    report.append(
        f"{args.workload} seed={args.seed}: measured {measured.completed} requests in "
        f"{measured.ended - measured.started:.2f} s ({measured.qps:.1f} req/s overall), "
        f"{len(swap_ms)} swaps (p50 {layers.percentile(swap_ms, 50):.0f} ms), "
        f"failed_frac {failed / attempted:.4f} ratio (n={attempted}), "
        f"{len(sample.items)} answers checked in {check_seconds:.1f} s, {len(problems)} wrong"
    )
    report.append("window qps (1/s): " + ", ".join(f"{value:.0f}" for value in windows))
    report.append("set-ups (s): " + ", ".join(f"{seconds:.3f}" for seconds in setup_seconds))
    report.append(f"  latency_p99_ms {per_layer['latency_p99_ms']:.6g} ms (n={len(latencies_ms)})")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = per_layer if args.trace else end_to_end
    metrics = {}
    for entry in wanted:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        count = samples.get(entry["name"])
        report.append(
            f"  {entry['name']:<36} {value:>14.6g} {entry['unit']}"
            + (f"  (n={count})" if count is not None else "")
        )
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report, problems


def pin_to_one_cpu() -> int:
    """Run the whole process on one CPU; returns that CPU.

    The serving path hands every request between the event-loop thread and
    executor threads.  On a 2-vCPU virtual machine a hand-off that wakes
    the other, idle vCPU waits for the host to schedule it, and that wait
    varies from run to run: unpinned, ``qps`` on ``listing-churn`` spread
    0.36 (quartile distance over median) over five seeds.  The pin costs
    no parallelism the service has: its Python work holds the GIL, and a
    serialised 2-shard fan-out served as fast as the threaded one, pinned
    or not.  Threads started later inherit the affinity, so this runs
    first.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cpu = pin_to_one_cpu()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    result, report, problems = asyncio.run(run(args))
    print(f"pinned to CPU {cpu}")
    for line in report + problems:
        print(line)
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
