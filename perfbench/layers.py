"""Span tracer that wraps each layer's entry points from outside ``src/``.

The benchmark's traced run patches the public entry points of every
package under ``repro`` (the *layers*) with thin wrappers that record one
span per call: name, start, end, parent span and the id of the
benchmark cell it ran in.  Generator entry points that the simulation
kernel resumes (``RDD.compute``, ``TaskRunner.run``, the DAG scheduler's
stage and task processes, ``ShuffleService.shuffle_read`` ...) record one
span per *resumption*, not for the call that merely creates the
generator.  Kernel callbacks (task dispatch wake-ups, fabric re-solves
and departure timers) are timed by wrapping the method the callback
enters, and module-level functions imported by name are patched in the
namespace that looks them up.

Spans live in flat typed arrays while the run lasts and are written out
once, at exit.  A span's *self time* is its duration minus the time its
child spans cover; a layer's self time sums the self time of the spans
named after it (``<layer>.<entry point>``).

Everything here is restored by :meth:`Instrumentation.uninstall`, and
the wrappers never touch simulated state, so a traced pass must produce
the same modelled results as an untraced one (the benchmark checks it).
"""

from __future__ import annotations

import inspect
import json
import os
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

LAYERS = (
    "simulation",
    "network",
    "rdd",
    "scheduler",
    "shuffle",
    "storage",
    "failures",
    "analysis",
    "cluster",
    "workloads",
    "experiments",
)


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.cell_col = array("i")
        self._stack: List[int] = []
        # Wrappers record only while active: inside timed cells and the
        # traced set-up, not during the benchmark's own output checks.
        self.active = False
        self.cell = -1
        # Per-name call counts (a generator counts once, however many
        # times the kernel resumes it).
        self.calls: Dict[str, int] = {}
        self.reset_counters()

    def reset_counters(self) -> None:
        """Zero the boundary counters (spans are kept)."""
        for name in self.calls:
            self.calls[name] = 0
        self.size_records = 0
        self.task_waits = array("d")
        self.job_queue_waits = array("d")
        self.sanitizers: List[Any] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self._name_ids[name] = nid
            self.calls[name] = 0
        return nid

    @property
    def span_count(self) -> int:
        return len(self.name_col)

    def open(self, nid: int) -> None:
        index = len(self.name_col)
        stack = self._stack
        self.name_col.append(nid)
        self.parent_col.append(stack[-1] if stack else -1)
        self.cell_col.append(self.cell)
        self.end_col.append(0.0)
        stack.append(index)
        self.start_col.append(perf_counter())

    def close(self) -> None:
        end = perf_counter()
        self.end_col[self._stack.pop()] = end

    # ------------------------------------------------------------------
    def arrays(self) -> Dict[str, np.ndarray]:
        """Every span, one column per field."""
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32),
            "start": np.frombuffer(self.start_col, dtype=np.float64),
            "end": np.frombuffer(self.end_col, dtype=np.float64),
            "parent": np.frombuffer(self.parent_col, dtype=np.int32),
            "cell": np.frombuffer(self.cell_col, dtype=np.int32),
        }

    def summarize(self, first: int, last: int) -> Dict[str, Dict[str, float]]:
        """Per-name span count, inclusive and self seconds of the spans
        recorded in ``[first, last)``."""
        names = np.frombuffer(self.name_col, dtype=np.int32)[:last]
        starts = np.frombuffer(self.start_col, dtype=np.float64)[:last]
        ends = np.frombuffer(self.end_col, dtype=np.float64)[:last]
        parents = np.frombuffer(self.parent_col, dtype=np.int32)[:last]
        durations = ends - starts
        child = np.zeros(last, dtype=np.float64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], durations[has_parent])
        own = durations - child
        window = slice(first, last)
        ids = names[window]
        out: Dict[str, Dict[str, float]] = {}
        counts = np.bincount(ids, minlength=len(self.names))
        inclusive = np.bincount(
            ids, weights=durations[window], minlength=len(self.names)
        )
        selfs = np.bincount(ids, weights=own[window], minlength=len(self.names))
        for nid, name in enumerate(self.names):
            if counts[nid]:
                out[name] = {
                    "spans": int(counts[nid]),
                    "inclusive_s": float(inclusive[nid]),
                    "self_s": float(selfs[nid]),
                }
        return out

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        """Write every span (columns as .npy arrays plus a JSON index)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        columns = self.arrays()
        np.savez(path, **columns)
        with open(path + ".json", "w", encoding="utf-8") as handle:
            json.dump(
                dict(meta, names=self.names, spans=self.span_count,
                     columns=sorted(columns)),
                handle,
                indent=1,
                sort_keys=True,
            )
            handle.write("\n")


def _traced_generator(tracer: Tracer, nid: int, gen):
    """Re-yield ``gen``, timing every resumption as one span."""
    value = None
    error: Optional[BaseException] = None
    while True:
        tracer.open(nid)
        try:
            if error is None:
                item = gen.send(value)
            else:
                pending, error = error, None
                item = gen.throw(pending)
        except StopIteration as stop:
            return stop.value
        finally:
            tracer.close()
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as raised:  # noqa: BLE001 - forwarded into gen
            error = raised
            value = None


def _make_wrapper(
    tracer: Tracer,
    fn: Callable,
    name: str,
    hook: Optional[Callable] = None,
    result_hook: Optional[Callable] = None,
) -> Callable:
    nid = tracer.name_id(name)
    calls = tracer.calls
    if inspect.isgeneratorfunction(fn):
        def gen_wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[name] += 1
            if hook is not None:
                hook(*args, **kwargs)
            return _traced_generator(tracer, nid, fn(*args, **kwargs))

        wrapper = gen_wrapper
    else:
        def call_wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[name] += 1
            if hook is not None:
                hook(*args, **kwargs)
            tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if result_hook is not None:
                result = result_hook(result)
            return result

        wrapper = call_wrapper
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


class Instrumentation:
    """Patches layer entry points with span wrappers; undoes it all."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._patched: List[Tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        hook: Optional[Callable] = None,
        result_hook: Optional[Callable] = None,
    ) -> None:
        if isinstance(owner, type):
            original = owner.__dict__[attr]  # defined here, not inherited
        else:
            original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(
            owner,
            attr,
            _make_wrapper(self.tracer, original, name, hook, result_hook),
        )

    def wrap_all(self, owner: Any, attrs: Tuple[str, ...], name: str) -> None:
        for attr in attrs:
            self.wrap(owner, attr, name)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap the entry points of every layer."""
        from repro.analysis import sanitizer as sanitizer_mod
        from repro.cluster import context as context_mod
        from repro.experiments import centralize, iridium, runner
        from repro.failures import campaign, chaos, grammar, health, injector
        from repro.network import fabric, jitter
        from repro.rdd import aggregator, rdd as rdd_mod, size_estimator
        from repro.scheduler import (
            dag_scheduler,
            job_scheduler,
            task_runner,
            task_scheduler,
        )
        from repro.shuffle import service, worker_pool
        from repro.shuffle.backends import remote
        from repro.simulation import kernel
        from repro.storage import blob as blob_store, hdfs
        from repro.workloads import arrivals, base as workload_base

        # simulation: the kernel's delivery loops.
        self.wrap_all(
            kernel.Simulator, ("run", "run_until_event"), "simulation.run"
        )

        # network: flow admission, re-solves, departures, capacity
        # changes, and the solver functions fabric imports by name.
        self.wrap(fabric.NetworkFabric, "transfer", "network.transfer")
        self.wrap_all(
            fabric.NetworkFabric,
            ("_run_recompute", "_on_wake", "_on_wake_global"),
            "network.solve",
        )
        self.wrap(fabric, "build_plan", "network.solver")
        self.wrap(fabric, "max_min_fair_rates", "network.solver")
        self.wrap(
            fabric.NetworkFabric,
            "_make_depart_timer",
            "network.plan",
            result_hook=self._depart_timer_hook(),
        )
        self.wrap_all(
            fabric.NetworkFabric,
            (
                "cancel",
                "notify_capacity_change",
                "set_link_capacity",
                "set_link_degrade",
                "set_link_partition",
                "set_capacity_hint",
                "clear_capacity_hint",
            ),
            "network.control",
        )
        self.wrap(jitter.BandwidthJitter, "_loop", "network.jitter")

        # rdd: partition compute (every subclass override), record
        # sizing, and combiners.
        for cls in _rdd_classes(rdd_mod.RDD):
            self.wrap(cls, "compute", "rdd.compute")
        estimator = size_estimator.SizeEstimator
        self.wrap(estimator, "estimate", "rdd.size", hook=self._count_records)
        self.wrap(
            estimator, "estimate_with_count", "rdd.size",
            hook=self._count_records,
        )
        self.wrap(estimator, "record_size", "rdd.size", hook=self._count_one)
        self.wrap_all(
            aggregator.Aggregator,
            ("combine_values", "combine_combiners"),
            "rdd.combine",
        )

        # scheduler: task dispatch and launch, task bodies, DAG/stage
        # processes, and the inter-job stream scheduler.
        ts = task_scheduler.TaskScheduler
        self.wrap_all(ts, ("submit", "_dispatch", "remove_executor"),
                      "scheduler.dispatch")
        self.wrap(ts, "_launch", "scheduler.launch", hook=self._note_launch)
        self.wrap(ts, "_run_wrapper", "scheduler.task")
        self.wrap(task_runner.TaskRunner, "run", "scheduler.task")
        dag = dag_scheduler.DAGScheduler
        for attr in (
            "run_job",
            "_stage_process",
            "_task_flow",
            "_submit_with_recovery",
            "_recover_lost_parent",
            "_resubmit_stage",
            "_speculation_monitor",
            "_speculative_copy",
        ):
            self.wrap(dag, attr, "scheduler.dag")
        js = job_scheduler.JobStreamScheduler
        self.wrap_all(js, ("run", "_on_arrival", "_on_done"), "scheduler.stream")
        self.wrap(js, "_admit", "scheduler.stream", hook=self._note_admit)

        # shuffle: the service facade plus backend processes the kernel
        # resumes on their own.
        self.wrap_all(
            service.ShuffleService,
            ("shuffle_read", "transfer_read"),
            "shuffle.read",
        )
        self.wrap_all(
            service.ShuffleService,
            (
                "prepare_job",
                "register_shuffle",
                "register_map_output",
                "prepare_stage_inputs",
                "stage_transfer_partition",
                "remove_shuffle",
                "on_host_failure",
                "on_blocks_lost",
            ),
            "shuffle.service",
        )
        self.wrap(service.ShuffleBackend, "_fetch_with_retry", "shuffle.service")
        self.wrap(remote.RemoteShuffleBackend, "_re_replicate", "shuffle.service")
        self.wrap(
            worker_pool.ShuffleWorkerPool, "on_worker_lost", "shuffle.service"
        )

        # storage: DFS and object-store operations.
        self.wrap(hdfs.DistributedFileSystem, "read_block", "storage.read")
        self.wrap_all(
            hdfs.DistributedFileSystem,
            ("write_file", "block_locations", "file_blocks", "delete_file"),
            "storage.dfs",
        )
        self.wrap_all(
            blob_store.BlobStore,
            ("put", "get_object", "note_get", "drop_shuffle"),
            "storage.blob",
        )

        # failures: chaos injection, health tracking, flow retry, the
        # fault-injection draws, and the campaign cell driver.
        ci = chaos.ChaosInjector
        self.wrap_all(ci, ("_run", "_restore_later", "_heal_later"),
                      "failures.chaos")
        self.wrap(health, "transfer_with_retry", "failures.retry")
        self.wrap(service, "transfer_with_retry", "failures.retry")
        self.wrap_all(
            health.BlacklistTracker,
            ("note_task_failure", "is_excluded", "next_expiry"),
            "failures.health",
        )
        self.wrap_all(
            health.LinkHealthMonitor,
            ("admission", "record_failure", "record_success"),
            "failures.health",
        )
        self.wrap_all(
            injector.FailureInjector,
            ("should_fail", "straggler_slowdown"),
            "failures.injector",
        )
        self.wrap(campaign, "run_cell", "failures.campaign")
        self.wrap(grammar, "random_schedule", "failures.grammar")

        # analysis: sanitizer invariants and post-run reconciliation.
        san = sanitizer_mod.Sanitizer
        self.wrap_all(
            san,
            ("check_rates", "check_remaining", "check_time", "check_ledger"),
            "analysis.check",
        )
        self.wrap(san, "__init__", "analysis.check", hook=self._note_sanitizer)
        self.wrap(campaign, "reconcile_run", "analysis.reconcile")

        # cluster: context construction and the driver-side API.
        cc = context_mod.ClusterContext
        self.wrap(cc, "__init__", "cluster.build")
        self.wrap_all(
            cc,
            ("write_input_file", "parallelize", "text_file", "submit_job",
             "_run", "shutdown"),
            "cluster.api",
        )

        # workloads: input generation and job programs.
        for cls in _subclasses(workload_base.Workload):
            for attr in ("generate",):
                if attr in cls.__dict__:
                    self.wrap(cls, attr, "workloads.generate")
            for attr in ("install", "build", "run"):
                if attr in cls.__dict__:
                    self.wrap(cls, attr, "workloads.job")
        self.wrap(arrivals, "generate_arrivals", "workloads.generate")
        self.wrap(arrivals.JobTemplate, "build", "workloads.job")

        # experiments: the matrix cell and its preprocessing phases.
        self.wrap(runner, "run_workload_once", "experiments.cell")
        self.wrap(centralize, "centralize_input", "experiments.preprocess")
        self.wrap(iridium, "iridium_redistribute", "experiments.preprocess")

    # ------------------------------------------------------------------
    # Boundary counters
    # ------------------------------------------------------------------
    def _count_records(self, _estimator, records, *args, **kwargs) -> None:
        try:
            self.tracer.size_records += len(records)
        except TypeError:  # an iterator: sizing consumes it, count lost
            pass

    def _count_one(self, *_args, **_kwargs) -> None:
        self.tracer.size_records += 1

    def _note_launch(self, scheduler, entry, _host) -> None:
        self.tracer.task_waits.append(scheduler.sim.now - entry.task.submit_time)

    def _note_admit(self, stream, queued) -> None:
        self.tracer.job_queue_waits.append(
            stream.context.sim.now - queued.arrived_at
        )

    def _note_sanitizer(self, sanitizer) -> None:
        self.tracer.sanitizers.append(sanitizer)

    def _depart_timer_hook(self) -> Callable:
        tracer = self.tracer
        nid = tracer.name_id("network.depart")
        calls = tracer.calls

        def hook(fire: Callable[[], None]) -> Callable[[], None]:
            def traced_fire() -> None:
                if not tracer.active:
                    return fire()
                calls["network.depart"] += 1
                tracer.open(nid)
                try:
                    fire()
                finally:
                    tracer.close()

            return traced_fire

        return hook


def _subclasses(root: type) -> List[type]:
    seen: List[type] = []
    todo = [root]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


def _rdd_classes(root: type) -> List[type]:
    """Every imported RDD class that defines its own ``compute``."""
    # Importing the modules that define RDD subclasses registers them.
    import repro.rdd.extra_ops  # noqa: F401
    import repro.rdd.shuffled  # noqa: F401
    import repro.rdd.transferred  # noqa: F401

    return [cls for cls in _subclasses(root) if "compute" in cls.__dict__]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
