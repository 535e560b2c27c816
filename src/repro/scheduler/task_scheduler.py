"""Slot-based, locality-aware task scheduling (delay scheduling).

Mirrors the Spark standalone behaviour the paper relies on:

* every worker host is an :class:`Executor` with a fixed number of cores;
* a task prefers specific hosts (``preferred_hosts``); it is placed there
  immediately if a slot is free, falls back to a *same-datacenter* host
  after ``locality_wait_host`` seconds, and to *any* host after an
  additional ``locality_wait_datacenter`` seconds;
* tasks with no preference run anywhere immediately, and free slots are
  offered most-free-host first, spreading no-preference tasks across the
  cluster — which is precisely how the stock scheduler scatters reducers
  across datacenters when shuffle input is scattered (§II-B), and packs
  them into the aggregator datacenter when it is not (§III-C).
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from repro.config import SchedulingConfig
from repro.errors import NoEligibleExecutorError, SchedulerError
from repro.network.topology import Topology
from repro.scheduler.task import Task, TaskResult
from repro.simulation.event import Event
from repro.simulation.kernel import Simulator
from repro.simulation.timer_wheel import TimerHandle

# Locality levels, smaller is better.
_HOST_LOCAL = 0
_DC_LOCAL = 1
_ANY = 2

# run_task(task, host) is a generator returning a TaskResult.
TaskBody = Callable[[Task, str], object]


class Executor:
    """A worker host's slots."""

    def __init__(self, host: str, cores: int) -> None:
        if cores < 1:
            raise SchedulerError(f"executor {host}: cores must be >= 1")
        self.host = host
        self.cores = cores
        self.busy = 0
        self.tasks_run = 0

    @property
    def free(self) -> int:
        return self.cores - self.busy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Executor {self.host} {self.busy}/{self.cores}>"


class _PendingEntry:
    """A queued task plus its placement sets, built once at enqueue.

    A task's placement fields (preferences, waits) are fixed before
    :meth:`TaskScheduler.submit` and never mutated afterwards, so the
    host sets each locality tier opens are computed once here rather
    than on every dispatch.
    """

    __slots__ = (
        "task",
        "completion",
        "sequence",
        "preferred",
        "dc_hosts",
        "host_wait",
        "dc_wait",
    )

    def __init__(
        self,
        task: Task,
        completion: Event,
        sequence: int,
        preferred: frozenset,
        dc_hosts: frozenset,
        host_wait: float,
        dc_wait: float,
    ) -> None:
        self.task = task
        self.completion = completion
        self.sequence = sequence
        # Host-local tier; empty when the task has no preference.
        self.preferred = preferred
        # Datacenter-local tier: every host of a preferred datacenter.
        self.dc_hosts = dc_hosts
        self.host_wait = host_wait
        self.dc_wait = dc_wait


class _RunningRecord:
    """One launched attempt: enough state to relaunch it on executor loss."""

    __slots__ = ("entry", "host", "process", "lost")

    def __init__(self, entry: _PendingEntry, host: str) -> None:
        self.entry = entry
        self.host = host
        self.process = None
        self.lost = False


class TaskScheduler:
    """Places tasks on executors and runs them via a caller-supplied body."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        executors: Dict[str, Executor],
        config: SchedulingConfig,
        run_task: TaskBody,
        blacklist=None,
    ) -> None:
        if not executors:
            raise NoEligibleExecutorError("no executors registered")
        self.sim = sim
        self.topology = topology
        self.executors = executors
        self.config = config
        self.run_task = run_task
        # Optional BlacklistTracker consulted at placement (excludeOn-
        # Failure); None or a disabled tracker leaves dispatch untouched.
        self.blacklist = blacklist
        self._pending: List[_PendingEntry] = []
        # Launched-but-unfinished attempts, in launch order (a list, not
        # a set: executor removal iterates it and must be deterministic).
        self._running: List[_RunningRecord] = []
        self._sequence = itertools.count()
        # The one live locality wakeup (see _plan_wakeup).
        self._wake: Optional[TimerHandle] = None
        self._wake_planned_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, task: Task) -> Event:
        """Queue a task; returns an event firing with its TaskResult."""
        task.submit_time = self.sim.now
        completion = self.sim.event(name=f"{task.task_id}:done")
        host_wait, dc_wait = self._task_waits(task)
        self._pending.append(
            _PendingEntry(
                task,
                completion,
                next(self._sequence),
                frozenset(task.preferred_hosts),
                self._preferred_dc_hosts(task.preferred_hosts),
                host_wait,
                dc_wait,
            )
        )
        self._dispatch()
        return completion

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    @property
    def running_count(self) -> int:
        return len(self._running)

    def total_free_slots(self) -> int:
        return sum(executor.free for executor in self.executors.values())

    def remove_executor(self, host: str) -> int:
        """Take one executor out of service (executor crash / host loss).

        Attempts currently running on it are interrupted and silently
        requeued — the waiter's completion event stays pending, exactly
        as Spark's driver relaunches tasks of a lost executor without
        failing the stage.  Returns the number of relaunched attempts.
        Removing the last executor is refused: no slot could ever run
        the relaunched work, so the simulation would deadlock.
        """
        if host not in self.executors:
            return 0
        if len(self.executors) == 1:
            raise SchedulerError(
                f"cannot remove {host!r}: it is the last executor"
            )
        del self.executors[host]
        relaunched = 0
        for record in list(self._running):
            if record.host == host and not record.lost:
                record.lost = True
                relaunched += 1
                record.process.interrupt(f"executor {host} lost")
        # Pending tasks that preferred the dead host re-dispatch on the
        # survivors (their locality waits keep ticking unchanged).
        self._dispatch()
        return relaunched

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Greedily match free slots to eligible pending tasks."""
        while self._pending:
            assignment = self._best_assignment()
            if assignment is None:
                break
            entry, host = assignment
            self._pending.remove(entry)
            self._launch(entry, host)
        self._plan_wakeup()

    def _best_assignment(self) -> Optional[Tuple[_PendingEntry, str]]:
        """The (task, host) pair with the best locality, if any.

        Ranked by locality level, then submission order; within the
        winning entry's level, the host with the most free slots wins
        (first in executor order on ties), spreading load like Spark
        standalone's ``spreadOut``.  Each pending entry is evaluated
        once against the free set: ``_pending`` is in submission order,
        so the first host-local hit is final and a later entry is only
        examined for tiers that beat the best level found so far.
        """
        executors = self.executors
        free_hosts = [
            host
            for host, executor in executors.items()
            if executor.busy < executor.cores
        ]
        if not free_hosts:
            return None
        now = self.sim.now
        best_level = _ANY + 1
        best: Optional[Tuple[_PendingEntry, List[str]]] = None
        for entry in self._pending:
            task = entry.task
            candidates = self._candidates(task, free_hosts)
            if not candidates:
                continue
            preferred = entry.preferred
            if not preferred or not any(
                pref in executors for pref in task.preferred_hosts
            ):
                # No preference, or every preferred host is dead (e.g. a
                # datacenter outage took the elected aggregator):
                # waiting out the locality tiers cannot help, so run
                # anywhere now and let the read path escalate to
                # re-election instead of stalling.
                if best_level > _ANY:
                    best_level, best = _ANY, (entry, candidates)
                continue
            local = [host for host in candidates if host in preferred]
            if local:
                return entry, self._most_free(local)
            if best_level <= _DC_LOCAL:
                continue
            waited = now - task.submit_time
            if waited >= entry.host_wait:
                dc_hosts = entry.dc_hosts
                dc_local = [host for host in candidates if host in dc_hosts]
                if dc_local:
                    best_level, best = _DC_LOCAL, (entry, dc_local)
                    continue
            if (
                best_level > _ANY
                and waited >= entry.host_wait + entry.dc_wait
            ):
                best_level, best = _ANY, (entry, candidates)
        if best is None:
            return None
        return best[0], self._most_free(best[1])

    def _candidates(self, task: Task, free_hosts: List[str]) -> List[str]:
        """``free_hosts`` ∩ the task's pool − its blacklist vetoes.

        Vetoed hosts removed here are counted in ``placements_vetoed``.
        """
        allowed = self._allowed_hosts(task)
        vetoed = self._vetoed_hosts(task)
        if vetoed is None:
            if allowed is None:
                return free_hosts
            return [host for host in free_hosts if host in allowed]
        candidates = []
        for host in free_hosts:
            if allowed is not None and host not in allowed:
                continue
            if host in vetoed:
                self.blacklist.counters.placements_vetoed += 1
                continue
            candidates.append(host)
        return candidates

    def _most_free(self, hosts: List[str]) -> str:
        """The host with the most free slots, first in order on ties."""
        executors = self.executors
        best_host = hosts[0]
        most = executors[best_host].free
        for host in hosts:
            free = executors[host].free
            if free > most:
                best_host, most = host, free
        return best_host

    def _allowed_hosts(self, task: Task) -> Optional[frozenset]:
        """The executor-pool share ``task`` is confined to, or None.

        Anti-starvation override (mirrors the blacklist veto): when no
        allowed host is a live executor — e.g. the share's hosts all
        died — the restriction is ignored so the job keeps making
        progress on the survivors instead of deadlocking.
        """
        allowed = task.allowed_hosts
        if not allowed:
            return None
        if not any(host in self.executors for host in allowed):
            return None
        return allowed

    def _vetoed_hosts(self, task: Task) -> Optional[set]:
        """The hosts the blacklist excludes for ``task``, or None.

        Anti-starvation override: when *every* live executor is
        excluded, the blacklist is ignored for this task — a wedged
        exclusion list must never deadlock the dispatcher.
        """
        blacklist = self.blacklist
        if blacklist is None or not blacklist.enabled:
            return None
        stage = getattr(task, "stage", None)
        stage_id = stage.stage_id if stage is not None else None
        vetoed = {
            host
            for host in self.executors
            if blacklist.is_excluded(host, stage_id)
        }
        if not vetoed or len(vetoed) >= len(self.executors):
            return None
        return vetoed

    def _task_waits(self, task: Task) -> Tuple[float, float]:
        host_wait = (
            task.locality_wait_host
            if task.locality_wait_host is not None
            else self.config.locality_wait_host
        )
        dc_wait = (
            task.locality_wait_datacenter
            if task.locality_wait_datacenter is not None
            else self.config.locality_wait_datacenter
        )
        return host_wait, dc_wait

    def _preferred_dc_hosts(self, preferred_hosts: List[str]) -> frozenset:
        """Every host of the datacenters holding ``preferred_hosts``."""
        topology = self.topology
        datacenters = dict.fromkeys(map(topology.datacenter_of, preferred_hosts))
        return frozenset(
            host
            for datacenter in datacenters
            for host in topology.hosts_in(datacenter)
        )

    def _launch(self, entry: _PendingEntry, host: str) -> None:
        executor = self.executors[host]
        executor.busy += 1
        executor.tasks_run += 1
        record = _RunningRecord(entry, host)
        self._running.append(record)
        record.process = self.sim.spawn(
            self._run_wrapper(record),
            name=f"{entry.task.task_id}@{host}",
        )

    def _finish_attempt(self, record: _RunningRecord) -> None:
        self._running.remove(record)
        executor = self.executors.get(record.host)
        if executor is not None:
            executor.busy -= 1

    def _run_wrapper(self, record: _RunningRecord):
        entry = record.entry
        try:
            result = yield from self.run_task(entry.task, record.host)
        except BaseException as error:  # noqa: BLE001 - propagate to waiter
            self._finish_attempt(record)
            if record.lost:
                # The executor died under this attempt: requeue rather
                # than fail, the completion's waiter never notices.
                entry.task.recovery = True
                entry.task.submit_time = self.sim.now
                entry.sequence = next(self._sequence)
                self._pending.append(entry)
                self._dispatch()
                return
            self._dispatch()
            entry.completion.fail(error)
            return
        self._finish_attempt(record)
        self._dispatch()
        entry.completion.succeed(result)

    # ------------------------------------------------------------------
    # Locality-wait wakeups
    # ------------------------------------------------------------------
    def _plan_wakeup(self) -> None:
        """Schedule a re-dispatch when a pending task's wait tier expires."""
        if not self._pending or self.total_free_slots() == 0:
            return
        next_time: Optional[float] = None
        for entry in self._pending:
            if not entry.preferred:
                continue
            submitted = entry.task.submit_time
            wait_host, wait_dc = entry.host_wait, entry.dc_wait
            for threshold in (
                submitted + wait_host,
                submitted + wait_host + wait_dc,
            ):
                if threshold > self.sim.now:
                    if next_time is None or threshold < next_time:
                        next_time = threshold
                    break
        # A blacklist expiry can unblock a vetoed placement even though
        # no locality tier is pending.
        if self.blacklist is not None and self.blacklist.enabled:
            expiry = self.blacklist.next_expiry()
            if expiry is not None and expiry > self.sim.now:
                if next_time is None or expiry < next_time:
                    next_time = expiry
        if next_time is None:
            return
        planned = self._wake_planned_at
        if planned is not None and self.sim.now < planned <= next_time:
            return  # an earlier-or-equal wake is already scheduled
        # One live wake per scheduler: a superseded timer is cancelled,
        # never left to fire a futile dispatch (and re-arm a duplicate).
        if self._wake is not None:
            self._wake.cancel()
        self._wake_planned_at = next_time
        self._wake = self.sim.call_later(next_time - self.sim.now, self._on_wake)

    def _on_wake(self) -> None:
        self._wake = None
        self._wake_planned_at = None
        self._dispatch()
