"""End-to-end benchmark of the wide-area shuffle simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hibench_matrix [--seed 0]
        [--seconds 20] [--trace 0|1]

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``hibench_matrix`` — the five HiBench jobs x six shuffle schemes;
* ``tenant_stream``  — four open-loop Poisson job streams (fifo/fair x
  fetch/push_aggregate) on the shared six-region cluster;
* ``chaos_campaign`` — 1,000 seeded fault schedules under the composite
  oracle, rotated over the backend x policy matrix.

Every input derives from ``--seed``.  The timed phase runs the
workload's cells back-to-back and repeats the whole pass while another
pass still fits in ``--seconds`` (at least one pass); ``wall_s`` is the
median pass.  Host times are reported at a reference CPU speed (see
``clock.py``); raw host seconds are printed next to them.  Outputs are
checked against references, and the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` an untraced pass is followed by a traced one (every
layer's entry points wrapped, see ``layers.py``) and the metrics are the
per-layer ones.  Spans, per-cell modelled statistics and cell timings
are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from math import fsum
from typing import Any, Dict, List, Tuple

from clock import SpeedClock

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOAD_NAMES = ("hibench_matrix", "tenant_stream", "chaos_campaign")
# Set-up repeats per run; set-up time is their median (plus the import).
SETUP_REPEATS = 5
# The traced run must attribute this share of traced wall time to layers.
MIN_COVERAGE = 0.90

Metrics = Dict[str, Tuple[float, str]]


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def load_program(clock: SpeedClock) -> Tuple[Any, float]:
    """Import the simulator from ``src/``; returns (scenarios, seconds)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(
            f"perfbench: no simulator sources at {src!r}; run from a "
            "checkout of the repository"
        )
    sys.path.insert(0, src)
    started = time.perf_counter()
    import scenarios  # noqa: E402 - imports repro

    return scenarios, clock.window(started, time.perf_counter())[0]


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Pass:
    """One execution of every cell of a workload."""

    def __init__(self) -> None:
        self.windows: List[Tuple[float, float]] = []  # host time per cell
        self.cell_seconds: List[float] = []  # at reference speed
        self.raw_seconds: List[float] = []  # host seconds as measured
        self.stats: List[Any] = []

    @property
    def wall_s(self) -> float:
        return fsum(self.cell_seconds)

    @property
    def raw_wall_s(self) -> float:
        return fsum(self.raw_seconds)

    @property
    def host_wall_s(self) -> float:
        """Host seconds of the cell windows, sampler time included (the
        time base of trace spans)."""
        return fsum(end - start for start, end in self.windows)

    @property
    def digest(self) -> str:
        """sha256 over every cell's modelled statistics."""
        return hashlib.sha256(
            "".join(s.digest for s in self.stats).encode()
        ).hexdigest()

    def settle(self, clock: SpeedClock) -> None:
        for start, end in self.windows:
            norm, raw = clock.window(start, end)
            self.cell_seconds.append(norm)
            self.raw_seconds.append(raw)


def run_pass(scenarios, workload, clock: SpeedClock, tracer=None,
             keep: bool = True) -> Pass:
    """Run every cell; only the program calls are timed, not the
    output checks.  The pass starts from a collected heap.  Without
    ``keep`` a cell's statistics shrink to its digest and verdict, so a
    repeated pass holds no more memory than the first."""
    result = Pass()
    gc.collect()
    for index, cell in enumerate(workload.cells()):
        if tracer is not None:
            tracer.cell, tracer.active = index, True
        started = time.perf_counter()
        try:
            raw = workload.run_cell(cell)
            error = None
        except Exception as raised:  # noqa: BLE001 - a failed cell is counted
            raw, error = None, raised
        ended = time.perf_counter()
        if tracer is not None:
            tracer.cell, tracer.active = -1, False
        label = workload.label(cell)
        if error is not None:
            stats = scenarios.run_failed(
                label, error, scenarios.cell_operations(workload, cell)
            )
        else:
            stats = workload.check(cell, raw)
        del raw, error
        stats.digest = scenarios.digest([dict(stats.record, cell=label)])
        if not keep:
            stats.record, stats.layer, stats.jcts, stats.prod_jcts = {}, {}, [], []
        result.windows.append((started, ended))
        result.stats.append(stats)
    result.settle(clock)
    return result


def setup(workload, seed: int, clock: SpeedClock) -> float:
    """Median set-up seconds over SETUP_REPEATS identical set-ups."""
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload.setup(seed)
        times.append(clock.window(started, time.perf_counter())[0])
    return statistics.median(times)


def modelled_metrics(scenarios, stats: List[Any]) -> Dict[str, Any]:
    jcts = [j for s in stats for j in s.jcts]
    prod = [j for s in stats for j in s.prod_jcts]
    # Median over cells of each cell's median JCT: for one-job cells the
    # plain median; for streams, the middle stream's median rather than
    # a rank that falls between the policies' JCT clusters.
    cell_medians = [percentile(s.jcts, 50) for s in stats if s.jcts]
    jct_ratio, wan_ratio, pairs = scenarios.push_fetch_ratios(stats)
    return {
        "sim_wan_gb": fsum(s.wan_bytes for s in stats) / 1e9,
        "sim_jct_mean_s": fsum(jcts) / len(jcts) if jcts else 0.0,
        "sim_jct_p50_s": percentile(cell_medians, 50),
        "sim_jct_p99_s": percentile(jcts, 99),
        "sim_prod_jct_p95_s": percentile(prod, 95),
        "sim_jct_push_fetch_ratio": jct_ratio,
        "sim_wan_push_fetch_ratio": wan_ratio,
        "jct_samples": len(jcts),
        "prod_samples": len(prod),
        "pairs": pairs,
    }


def records(bench_pass: Pass) -> List[Dict[str, Any]]:
    return [dict(s.record, cell=s.label) for s in bench_pass.stats]


def report_modelled(name: str, seed: int, model: Dict[str, Any], digest: str,
                    stats: List[Any]) -> None:
    recovery: Dict[str, float] = {}
    for s in stats:
        for key, value in s.record.get("recovery", []):
            recovery[key] = recovery.get(key, 0.0) + value
    fired = {k: v for k, v in sorted(recovery.items()) if v}
    total_bytes = fsum(s.record.get("total_bytes", 0.0) for s in stats)
    jct_ratio = model["sim_jct_push_fetch_ratio"]
    wan_ratio = model["sim_wan_push_fetch_ratio"]
    print(f"[{name} seed={seed}] modelled digest sha256={digest}")
    print(
        f"  jct: n={model['jct_samples']} mean={model['sim_jct_mean_s']:.6g}s "
        f"p50={model['sim_jct_p50_s']:.6g}s p99={model['sim_jct_p99_s']:.6g}s; "
        f"prod-tenant p95 (every job without tenants)={model['sim_prod_jct_p95_s']:.6g}s "
        f"(n={model['prod_samples']})"
    )
    print(
        f"  bytes: wan={model['sim_wan_gb']:.6g}GB "
        f"total={total_bytes / 1e9:.6g}GB"
    )
    print(
        f"  push/aggregate vs fetch over {model['pairs']} pair(s): "
        f"jct x{jct_ratio:.6g} ({100 * (1 - jct_ratio):.2f}% reduction), "
        f"wan x{wan_ratio:.6g} ({100 * (1 - wan_ratio):.2f}% reduction)"
    )
    print(f"  recovery: {fired if fired else 'none'}")


def write_json(path: str, payload: Any) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True, default=repr)
        handle.write("\n")


def verdict(bench_pass: Pass) -> Tuple[int, int, int, List[str]]:
    attempted = sum(s.attempted for s in bench_pass.stats)
    failed = sum(s.failed for s in bench_pass.stats)
    fail_stops = sum(s.fail_stops for s in bench_pass.stats)
    errors = [e for s in bench_pass.stats for e in s.errors]
    return attempted, failed, fail_stops, errors


def end_to_end_metrics(model: Dict[str, Any], wall: float, setup_s: float,
                       rss_mb: float) -> Metrics:
    metrics: Metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        # Modelled (simulated) quantities carry "sim_" units.
        "sim_wan_gb": (model["sim_wan_gb"], "sim_GB"),
    }
    for key in ("sim_jct_mean_s", "sim_jct_p50_s", "sim_jct_p99_s",
                "sim_prod_jct_p95_s"):
        metrics[key] = (model[key], "sim_s")
    for key in ("sim_jct_push_fetch_ratio", "sim_wan_push_fetch_ratio"):
        metrics[key] = (model[key], "ratio")
    return metrics


def layer_metrics(tracer, summary: Dict[str, Dict[str, float]],
                  setup_summary: Dict[str, Dict[str, float]],
                  traced: Pass, untraced: Pass) -> Metrics:
    from layers import LAYERS, layer_of

    def self_s(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    def inclusive_s(table: Dict[str, Dict[str, float]], name: str) -> float:
        return table.get(name, {}).get("inclusive_s", 0.0)

    def total(key: str) -> float:
        return fsum(s.layer.get(key, 0.0) for s in traced.stats)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, row in summary.items():
        layer_self[layer_of(name)] += row["self_s"]
    # Spans hold host times, so coverage compares host to host.
    wall = traced.host_wall_s
    covered = fsum(layer_self.values())
    calls = tracer.calls
    dispatches = calls.get("scheduler.dispatch", 0)
    launches = calls.get("scheduler.launch", 0)
    solves = total("solves")
    wan = total("shuffle_wan_bytes")
    shuffle_all = wan + total("shuffle_intra_bytes") + total(
        "shuffle_local_bytes"
    )
    metrics: Metrics = {
        f"{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS
    }
    metrics.update({
        "rdd.size_estimates": (calls.get("rdd.size", 0), "count"),
        "rdd.size_records": (tracer.size_records, "count"),
        "rdd.size_self_s": (self_s("rdd.size"), "s"),
        "rdd.compute_self_s": (self_s("rdd.compute"), "s"),
        "scheduler.dispatches": (dispatches, "count"),
        "scheduler.launches": (launches, "count"),
        "scheduler.launch_ratio": (ratio(launches, dispatches), "ratio"),
        "scheduler.dispatch_self_s": (
            self_s("scheduler.dispatch") + self_s("scheduler.launch"), "s"),
        "scheduler.dag_self_s": (self_s("scheduler.dag"), "s"),
        "scheduler.task_wait_sim_p50_s": (
            percentile(list(tracer.task_waits), 50), "sim_s"),
        "scheduler.task_wait_sim_p99_s": (
            percentile(list(tracer.task_waits), 99), "sim_s"),
        "scheduler.job_queue_sim_p99_s": (
            percentile(list(tracer.job_queue_waits), 99), "sim_s"),
        "scheduler.stages_resubmitted": (total("stages_resubmitted"), "count"),
        "scheduler.tasks_relaunched": (total("tasks_relaunched"), "count"),
        "simulation.events": (total("events"), "count"),
        "network.transfers": (calls.get("network.transfer", 0), "count"),
        "network.solves": (solves, "count"),
        "network.flows_per_solve": (ratio(total("flows_touched"), solves),
                                    "flows"),
        "network.peak_active_flows": (
            max((s.layer.get("peak_active_flows", 0.0) for s in traced.stats),
                default=0.0), "count"),
        "network.transfer_sim_s": (
            ratio(total("flow_seconds"), total("flows")), "sim_s"),
        "shuffle.reads": (calls.get("shuffle.read", 0), "count"),
        "shuffle.wan_gb": (wan / 1e9, "sim_GB"),
        "shuffle.local_frac": (
            ratio(total("shuffle_local_bytes"), shuffle_all), "ratio"),
        "shuffle.recovery_wan_frac": (
            ratio(total("shuffle_recovery_wan_bytes"), wan), "ratio"),
        "shuffle.replication_gb": (
            total("shuffle_replication_bytes") / 1e9, "sim_GB"),
        "shuffle.blob_requests": (total("blob_requests"), "count"),
        "storage.block_reads": (calls.get("storage.read", 0), "count"),
        "failures.chaos_applied": (total("chaos_applied"), "count"),
        "failures.chaos_skipped": (total("chaos_skipped"), "count"),
        "failures.flow_retries": (total("flow_retries"), "count"),
        "analysis.checks": (
            sum(s.total_checks for s in tracer.sanitizers)
            + calls.get("analysis.reconcile", 0), "count"),
        "cluster.builds": (calls.get("cluster.build", 0), "count"),
        "cluster.build_s": (inclusive_s(summary, "cluster.build"), "s"),
        "workloads.generate_s": (
            inclusive_s(setup_summary, "workloads.generate"), "s"),
        "experiments.cells": (len(untraced.cell_seconds), "count"),
        "experiments.cell_p50_s": (percentile(untraced.cell_seconds, 50), "s"),
        "experiments.cell_max_s": (max(untraced.cell_seconds), "s"),
        "trace.untraced_s": (wall - covered, "s"),
        "trace.coverage_frac": (ratio(covered, wall), "ratio"),
        "trace.overhead_frac": (
            ratio(traced.wall_s - untraced.wall_s, untraced.wall_s), "ratio"),
    })
    return metrics


def traced_run(scenarios, workload, args, clock: SpeedClock, untraced: Pass,
               digest: str, tag: str) -> Tuple[Metrics, List[str]]:
    """Set up and run one more pass with every layer entry point wrapped."""
    from layers import Instrumentation, Tracer

    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    instrumentation.install()
    try:
        tracer.active = True
        workload.setup(args.seed)
        tracer.active = False
        mark = tracer.span_count
        tracer.reset_counters()
        traced = run_pass(scenarios, workload, clock, tracer=tracer)
        end = tracer.span_count
    finally:
        instrumentation.uninstall()
    errors = [f"traced pass: {e}" for e in verdict(traced)[3]]
    if traced.digest != digest:
        errors.append("traced pass changed the modelled results")
        write_json(os.path.join(OUT_DIR, f"{tag}.traced-cells.json"),
                   records(traced))
    summary = tracer.summarize(mark, end)
    metrics = layer_metrics(
        tracer, summary, tracer.summarize(0, mark), traced, untraced
    )
    coverage = metrics["trace.coverage_frac"][0]
    if coverage < MIN_COVERAGE:
        errors.append(
            f"layer self-times cover {coverage:.3f} of traced wall time "
            f"(< {MIN_COVERAGE})"
        )
    tracer.write(
        os.path.join(OUT_DIR, f"{tag}.spans.npz"),
        {"workload": args.workload, "seed": args.seed, "setup_spans": mark,
         "pass_spans": end - mark},
    )
    report_layers(args, metrics, summary, traced, untraced)
    return metrics, errors


def report_layers(args, metrics: Metrics, summary, traced: Pass,
                  untraced: Pass) -> None:
    from layers import LAYERS

    wall = traced.host_wall_s
    ranking = sorted(LAYERS, key=lambda layer: -metrics[f"{layer}.self_s"][0])
    print(
        f"[{args.workload} seed={args.seed}] traced wall={traced.wall_s:.3f}s "
        f"untraced wall={untraced.wall_s:.3f}s (reference speed), "
        f"coverage={metrics['trace.coverage_frac'][0]:.4f}"
    )
    print("  layer ranking by self time (share of traced host wall):")
    for rank, layer in enumerate(ranking, 1):
        value = metrics[f"{layer}.self_s"][0]
        print(f"  {rank:2d}. {layer:<12} {value:9.3f}s {100 * value / wall:6.2f}%")
    print("  entry points by self time (s, spans):")
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"    {name:<24} {row['self_s']:9.3f}s {row['spans']:>10d}")


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    clock = SpeedClock()
    clock.start()
    try:
        return measure(args, clock)
    finally:
        clock.stop()


def measure(args: argparse.Namespace, clock: SpeedClock) -> int:
    scenarios, import_s = load_program(clock)
    workload = scenarios.WORKLOADS[args.workload]()
    setup_s = import_s + setup(workload, args.seed, clock)

    passes: List[Pass] = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(scenarios, workload, clock, keep=not passes))
        elapsed = time.perf_counter() - started
        if args.trace or elapsed + passes[-1].raw_wall_s > args.seconds:
            break
    first = passes[0]
    digest = first.digest
    attempted, failed, fail_stops, errors = verdict(first)
    for other in passes[1:]:
        if other.digest != digest:
            errors.append("modelled results differ between passes")
            failed = attempted
        failed = max(failed, verdict(other)[1])
    model = modelled_metrics(scenarios, first.stats)
    report_modelled(args.workload, args.seed, model, digest, first.stats)
    tag = f"{args.workload}-seed{args.seed}"
    write_json(os.path.join(OUT_DIR, f"{tag}.cells.json"), records(first))
    write_json(
        os.path.join(OUT_DIR, f"{tag}.timing.json"),
        [
            {"cell": s.label, "seconds": [p.cell_seconds[i] for p in passes],
             "raw_seconds": [p.raw_seconds[i] for p in passes]}
            for i, s in enumerate(first.stats)
        ],
    )

    if args.trace:
        metrics, trace_errors = traced_run(
            scenarios, workload, args, clock, first, digest, tag
        )
        errors.extend(trace_errors)
        if trace_errors:
            failed = max(failed, 1)
    else:
        wall = statistics.median(p.wall_s for p in passes)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end_metrics(model, wall, setup_s, rss_mb)
        print(
            f"  host: wall={wall:.4f}s at reference speed "
            f"(raw {statistics.median(p.raw_wall_s for p in passes):.4f}s) "
            f"over {len(passes)} pass(es) of {len(first.cell_seconds)} cells; "
            f"setup={setup_s:.4f}s (import {import_s:.4f}s); "
            f"peak_rss={rss_mb:.1f}MB; {clock.samples} speed samples"
        )

    print(
        f"  error_rate={failed}/{attempted}"
        f"={failed / attempted if attempted else 0.0:.6g} "
        f"(accepted fail-stops: {fail_stops})"
    )
    for line in errors[:20]:
        print(f"  FAIL {line}")
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
