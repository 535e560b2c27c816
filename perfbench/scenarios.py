"""The benchmark's three workloads, built on the simulator's public API.

Each workload splits into

* ``setup(seed)`` — generate every input from the seed (datasets,
  arrival schedules, fault schedules and the campaign's fault-free
  hashes); the program receives only these generated inputs;
* ``cells()`` / ``run_cell(cell)`` — the timed work, one simulator call
  per cell, run back-to-back in this process (serial runner, campaign
  ``jobs=1``, no process pool);
* ``check(cell, raw)`` — untimed: verifies the cell's outputs and
  returns its modelled statistics.

Modelled statistics are simulated quantities (JCTs, byte counters,
recovery counters); for a fixed seed they repeat exactly, so their
digest shows whether a speed-only change left results untouched.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import fsum
from typing import Any, Dict, Iterator, List, Tuple

from repro.cluster import context as context_mod
from repro.cluster.builder import ec2_six_region_spec
from repro.experiments import runner, schemes
from repro.experiments.schemes import Scheme
from repro.failures import campaign, grammar
from repro.failures.chaos import ChaosSchedule
from repro.failures.minimize import minimize_schedule
from repro.scheduler.job_scheduler import JobStreamScheduler
from repro.shuffle.backends import backend_names
from repro.simulation.random_source import RandomSource
from repro.workloads import WORDCOUNT, PageRank, all_workloads, arrivals

SIDES = {"push_aggregate": "push", "fetch": "fetch"}
# The seed of the "datasets" — HiBench inputs with their block placement,
# and the stream arrival schedules.  Like the runner's ExperimentPlan
# (fixed_data_seed=0, the paper's repeated runs over one dataset), the
# benchmark's --seed is the run seed: it drives the environment
# (bandwidth jitter, failure draws) and the campaign's fault schedules.
DATA_SEED = 0


@dataclass
class CellStats:
    """What one cell contributes to the workload's metrics."""

    label: str
    # Operations attempted and failed (error_rate's base and numerator).
    attempted: int
    failed: int = 0
    fail_stops: int = 0
    errors: List[str] = field(default_factory=list)
    # Modelled job completion times and the highest-weight tenant's.
    jcts: List[float] = field(default_factory=list)
    prod_jcts: List[float] = field(default_factory=list)
    wan_bytes: float = 0.0
    # "push" (Push/Aggregate), "fetch" (stock Spark shuffle) or "" for
    # other schemes; cells sharing ``pair`` differ only in that.
    side: str = ""
    pair: str = ""
    # Everything modelled about the cell, for the digest.
    record: Dict[str, Any] = field(default_factory=dict)
    # Per-layer counters read from the cell's cluster context(s).
    layer: Dict[str, float] = field(default_factory=dict)
    # sha256 of the labelled record.
    digest: str = ""


def context_record(context) -> Tuple[Dict[str, Any], Dict[str, float]]:
    """Modelled statistics of one finished cluster context, plus the
    per-layer counters the traced run reports."""
    fabric = context.fabric
    perf = fabric.perf
    flows = [f for f in fabric.completed_flows if f.size_bytes > 0]
    flow_seconds = fsum(f.finished_at - f.started_at for f in flows)
    shuffle = context.shuffle_service.counters.as_dict()
    recovery = context.recovery.as_dict()
    health = context.health.as_dict()
    applied = skipped = 0
    if context.chaos_injector is not None:
        for fired in context.chaos_injector.fired:
            if fired.applied:
                applied += 1
            else:
                skipped += 1
    traffic = context.traffic
    record = {
        "sim_end_s": context.sim.now,
        "events": context.sim.processed_events,
        "total_bytes": traffic.total_bytes,
        "wan_bytes": traffic.cross_dc_bytes,
        "wan_by_tag": sorted(traffic.cross_dc_by_tag.items()),
        "flows": len(flows),
        "flow_seconds": flow_seconds,
        "solves": perf.solves,
        "flows_touched": perf.flows_touched,
        "peak_active_flows": perf.peak_active_flows,
        "shuffle": sorted(shuffle.items()),
        "recovery": sorted(recovery.items()),
        "health": sorted(health.items()),
        "chaos_applied": applied,
        "chaos_skipped": skipped,
    }
    layer = {
        "events": float(context.sim.processed_events),
        "solves": float(perf.solves),
        "flows_touched": float(perf.flows_touched),
        "peak_active_flows": float(perf.peak_active_flows),
        "flows": float(len(flows)),
        "flow_seconds": flow_seconds,
        "shuffle_wan_bytes": shuffle["wan_bytes"],
        "shuffle_intra_bytes": shuffle["intra_dc_bytes"],
        "shuffle_local_bytes": shuffle["local_bytes"],
        "shuffle_recovery_wan_bytes": shuffle["recovery_wan_bytes"],
        "shuffle_replication_bytes": shuffle["replication_bytes"],
        "blob_requests": shuffle["blob_puts"] + shuffle["blob_gets"],
        "stages_resubmitted": recovery["stages_resubmitted"],
        "tasks_relaunched": recovery["tasks_relaunched"],
        "flow_retries": health["flow_retries"],
        "chaos_applied": float(applied),
        "chaos_skipped": float(skipped),
    }
    return record, layer


@contextmanager
def captured_contexts() -> Iterator[List[Any]]:
    """Collect every cluster context as the program shuts it down.

    The matrix runner and the campaign cell build and shut down their
    own contexts; this keeps a reference so the benchmark can read the
    cell's outputs and counters afterwards (contexts stay readable after
    shutdown).
    """
    cls = context_mod.ClusterContext
    original = cls.__dict__["shutdown"]
    sink: List[Any] = []

    def shutdown(self) -> None:
        original(self)
        sink.append(self)

    cls.shutdown = shutdown
    try:
        yield sink
    finally:
        cls.shutdown = original


def digest(records: List[Dict[str, Any]]) -> str:
    payload = json.dumps(records, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode()).hexdigest()


def _result_hash(value: Any) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# hibench_matrix
# ---------------------------------------------------------------------------
HIBENCH_SCHEMES = (
    Scheme.SPARK,
    Scheme.CENTRALIZED,
    Scheme.AGGSHUFFLE,
    Scheme.PREMERGE,
    Scheme.REMOTE,
    Scheme.BLOB,
)


class HiBenchMatrix:
    """Five HiBench workloads x six shuffle schemes, one cell each."""

    name = "hibench_matrix"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.workloads = all_workloads()
        runner.clear_data_cache()
        # The runner's dataset cache is the program's input: filling it
        # here keeps generation out of the timed cells.
        self.inputs = {
            w.name: runner.generated_input(w, DATA_SEED) for w in self.workloads
        }
        self.plan = runner.ExperimentPlan(
            seeds=(seed,), fixed_data_seed=DATA_SEED, keep_action_results=True
        )
        self._references: Dict[str, Any] = {}

    def cells(self) -> List[Tuple[Any, Scheme]]:
        return [(w, s) for w in self.workloads for s in HIBENCH_SCHEMES]

    def label(self, cell) -> str:
        workload, scheme = cell
        return f"{workload.name}/{scheme.value}"

    def run_cell(self, cell):
        workload, scheme = cell
        with captured_contexts() as contexts:
            result = runner.run_workload_once(
                workload, scheme, self.seed, self.plan
            )
        return result, contexts[-1]

    def _reference(self, workload) -> Any:
        if workload.name not in self._references:
            self._references[workload.name] = workload.reference_result(
                self.inputs[workload.name]
            )
        return self._references[workload.name]

    def _output(self, workload, result, context) -> Any:
        """The action's output in the reference's shape."""
        if workload.name in ("Sort", "TeraSort"):
            keys = []
            for index in range(workload.spec.reduce_partitions):
                path = f"{workload.output_path}/part-{index:05d}"
                for block_id in context.dfs.file_blocks(path):
                    block = context.dfs.read_block(block_id)
                    keys.extend(key for key, _value in block.records)
            return keys
        return {key: value.payload for key, value in result.action_result}

    def _matches(self, workload, output, reference) -> bool:
        if isinstance(workload, PageRank):
            if set(output) != set(reference):
                return False
            return all(
                abs(output[page] - rank) <= 1e-9 * abs(rank)
                for page, rank in reference.items()
            )
        return output == reference

    def check(self, cell, raw) -> CellStats:
        workload, scheme = cell
        result, context = raw
        stats = CellStats(label=self.label(cell), attempted=1)
        output = self._output(workload, result, context)
        if not self._matches(workload, output, self._reference(workload)):
            stats.failed = 1
            stats.errors.append(f"{stats.label}: output differs from reference")
        record, stats.layer = context_record(context)
        record.update(
            jct_s=result.duration,
            job_s=result.job_duration,
            centralize_s=result.centralize_duration,
            stages=[(s.name, s.kind, s.started_at, s.duration)
                    for s in result.stages],
            output=_result_hash(sorted(output.items())
                                if isinstance(output, dict) else output),
        )
        stats.record = record
        stats.jcts = [result.duration]
        stats.prod_jcts = [result.duration]
        stats.wan_bytes = context.traffic.cross_dc_bytes
        # Centralized also runs on the fetch backend: pair by scheme.
        stats.side = {Scheme.SPARK: "fetch", Scheme.AGGSHUFFLE: "push"}.get(
            scheme, ""
        )
        stats.pair = workload.name
        return stats


# ---------------------------------------------------------------------------
# tenant_stream
# ---------------------------------------------------------------------------
STREAM_JOBS = 500
STREAM_RATE_PER_MIN = 60.0
STREAM_TENANTS = (("prod", 8.0, 1.0), ("batch", 1.0, 4.0))
STREAM_CELLS = (
    ("fifo", Scheme.SPARK),
    ("fair", Scheme.SPARK),
    ("fifo", Scheme.AGGSHUFFLE),
    ("fair", Scheme.AGGSHUFFLE),
)
PROD_TENANT = "prod"


class TenantStream:
    """Four equal Poisson job streams on the shared Fig. 6 cluster."""

    name = "tenant_stream"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.cluster = ec2_six_region_spec()
        tenants = tuple(
            arrivals.TenantSpec(name, weight, share)
            for name, weight, share in STREAM_TENANTS
        )
        arrival = arrivals.ArrivalSpec(
            "poisson", STREAM_RATE_PER_MIN, STREAM_JOBS
        )
        self.specs = {}
        self.arrivals = {}
        for policy, _scheme in STREAM_CELLS:
            if policy in self.specs:
                continue
            spec = arrivals.StreamSpec(
                arrival=arrival, tenants=tenants, policy=policy
            )
            self.specs[policy] = spec
            # Drawn the way the matrix runner draws a cell's schedule
            # (root stream, child "stream"), from the fixed data seed.
            self.arrivals[policy] = arrivals.generate_arrivals(
                spec,
                self.cluster.datacenters,
                RandomSource(DATA_SEED).child("stream"),
            )

    def cells(self):
        return list(STREAM_CELLS)

    def label(self, cell) -> str:
        policy, scheme = cell
        return f"{policy}/{scheme.value}"

    def run_cell(self, cell):
        policy, scheme = cell
        config = schemes.config_for_scheme(scheme, WORDCOUNT, self.seed)
        context = context_mod.ClusterContext(self.cluster, config)
        stream = JobStreamScheduler(context, self.specs[policy])
        result = stream.run(self.arrivals[policy])
        context.shutdown()
        return context, stream, result

    def check(self, cell, raw) -> CellStats:
        policy, scheme = cell
        context, stream, result = raw
        label = self.label(cell)
        submitted = len(self.arrivals[policy])
        stats = CellStats(label=label, attempted=submitted)
        unfinished = submitted - result.jobs_completed
        if unfinished or result.jobs_failed:
            stats.failed = max(unfinished, result.jobs_failed)
            stats.errors.append(
                f"{label}: {result.jobs_completed}/{submitted} jobs completed"
            )
        ledger = context.fabric.tenant_ledger
        traffic = context.traffic
        pairs = (
            ("bytes", ledger.bytes_by_tenant, traffic.by_tenant),
            ("wan", ledger.wan_bytes_by_tenant, traffic.cross_dc_by_tenant),
        )
        for kind, charged, recorded in pairs:
            for tenant in sorted(set(charged) | set(recorded)):
                if charged.get(tenant, 0.0) != recorded.get(tenant, 0.0):
                    stats.failed = submitted
                    stats.errors.append(
                        f"{label}: tenant {tenant} {kind} ledger "
                        f"{charged.get(tenant, 0.0)!r} != monitor "
                        f"{recorded.get(tenant, 0.0)!r}"
                    )
            if fsum(charged.values()) != fsum(recorded.values()):
                stats.failed = submitted
                stats.errors.append(f"{label}: total {kind} ledger != monitor")
        jcts = stream.counters.jct
        record, stats.layer = context_record(context)
        record.update(
            jobs_completed=result.jobs_completed,
            jobs_failed=result.jobs_failed,
            stream_s=result.duration,
            jct_by_tenant=sorted((t, list(v)) for t, v in jcts.items()),
            tenants=sorted(result.tenants.items()),
        )
        stats.record = record
        stats.jcts = [j for tenant in sorted(jcts) for j in jcts[tenant]]
        stats.prod_jcts = list(jcts.get(PROD_TENANT, []))
        stats.wan_bytes = traffic.cross_dc_bytes
        stats.side = SIDES.get(context.shuffle_service.backend_name, "")
        stats.pair = policy
        return stats


# ---------------------------------------------------------------------------
# chaos_campaign
# ---------------------------------------------------------------------------
CAMPAIGN_SCHEDULES = 1000


class ChaosCampaign:
    """Seeded fault schedules rotated over the backend x policy matrix,
    under the composite oracle, minimizing any finding."""

    name = "chaos_campaign"

    def setup(self, seed: int) -> None:
        self.seed = seed
        config = campaign.CampaignConfig(seed=seed, schedules=CAMPAIGN_SCHEDULES)
        config.validate()
        self.config = config
        backends = tuple(backend_names())
        baselines = campaign.fault_free_hashes(backends, config.policies, seed)
        universe = grammar.ChaosUniverse.from_spec(campaign.fuzz_cluster_spec())
        matrix = [(b, p) for b in backends for p in config.policies]
        root = RandomSource(seed)
        cells = []
        # The draw run_campaign makes: schedule i pairs with matrix
        # column i mod columns (rotate mode).
        for index in range(config.schedules):
            child = root.child(f"schedule:{index}")
            events = child.stream("fuzz:events").randint(
                config.events_min, config.events_max
            )
            schedule = grammar.random_schedule(
                child,
                universe,
                grammar.GrammarConfig(events=events, window=config.window),
            )
            backend, policy = matrix[index % len(matrix)]
            cells.append(campaign.CampaignCell(
                index=index,
                schedule_specs=tuple(grammar.schedule_to_specs(schedule)),
                backend=backend,
                policy=policy,
                seed=seed,
                expected_hash=baselines[(backend, policy)],
                max_wall_seconds=config.cell_wall_seconds,
            ))
        self._cells = cells

    def cells(self):
        return self._cells

    def label(self, cell) -> str:
        return f"#{cell.index}/{cell.backend}/{cell.policy}"

    def run_cell(self, cell):
        with captured_contexts() as contexts:
            outcome = campaign.run_cell(cell)
            minimized = None
            if outcome.violations and self.config.minimize:
                def still_fails(candidate: ChaosSchedule) -> bool:
                    return bool(
                        campaign.run_cell(cell, schedule=candidate).violations
                    )

                minimized = minimize_schedule(
                    ChaosSchedule.from_specs(cell.schedule_specs), still_fails
                )
        return outcome, contexts[0], minimized

    def check(self, cell, raw) -> CellStats:
        outcome, context, minimized = raw
        label = self.label(cell)
        stats = CellStats(label=label, attempted=1)
        if outcome.violations:
            stats.failed = 1
            stats.errors.append(f"{label}: {'; '.join(outcome.violations)}")
            if minimized is not None:
                stats.errors.append(
                    f"  minimized to: {grammar.schedule_to_specs(minimized.schedule)}"
                )
        if outcome.job_failed:
            stats.fail_stops = 1
        else:
            stats.jcts = [outcome.duration]
            stats.prod_jcts = [outcome.duration]
        record, stats.layer = context_record(context)
        record.update(
            violations=list(outcome.violations),
            # The message names process-global shuffle ids; keep the type.
            job_failed=outcome.job_failed.split(":", 1)[0],
            jct_s=outcome.duration,
            chaos_applied=list(outcome.chaos_applied),
            chaos_skipped=list(outcome.chaos_skipped),
            output=outcome.observed_hash,
        )
        stats.record = record
        stats.wan_bytes = context.traffic.cross_dc_bytes
        stats.side = SIDES.get(cell.backend, "")
        stats.pair = "campaign"
        return stats


WORKLOADS = {
    cls.name: cls for cls in (HiBenchMatrix, TenantStream, ChaosCampaign)
}


def run_failed(label: str, error: Exception, attempted: int) -> CellStats:
    """A cell whose program call raised: every operation in it failed."""
    return CellStats(
        label=label,
        attempted=attempted,
        failed=attempted,
        errors=[f"{label}: raised {type(error).__name__}: {error}"],
        record={"raised": f"{type(error).__name__}: {error}"},
    )


def cell_operations(workload, cell) -> int:
    if isinstance(workload, TenantStream):
        return len(workload.arrivals[cell[0]])
    return 1


def push_fetch_ratios(cells: List[CellStats]) -> Tuple[float, float, int]:
    """Mean over backend pairs of push/aggregate's modelled JCT and WAN
    bytes relative to fetch on the same inputs and policy."""
    groups: Dict[str, Dict[str, List[CellStats]]] = {}
    for stats in cells:
        if stats.side and "raised" not in stats.record:
            groups.setdefault(stats.pair, {}).setdefault(
                stats.side, []
            ).append(stats)
    jct_ratios: List[float] = []
    wan_ratios: List[float] = []
    for pair in sorted(groups):
        sides = groups[pair]
        if "push" not in sides or "fetch" not in sides:
            continue
        push_jct = _mean([j for s in sides["push"] for j in s.jcts])
        fetch_jct = _mean([j for s in sides["fetch"] for j in s.jcts])
        push_wan = _mean([s.wan_bytes for s in sides["push"]])
        fetch_wan = _mean([s.wan_bytes for s in sides["fetch"]])
        if fetch_jct > 0:
            jct_ratios.append(push_jct / fetch_jct)
        if fetch_wan > 0:
            wan_ratios.append(push_wan / fetch_wan)
    return _mean(jct_ratios), _mean(wan_ratios), len(jct_ratios)


def _mean(values: List[float]) -> float:
    return fsum(values) / len(values) if values else 0.0

