"""TaskScheduler: slots, locality levels, delay scheduling, spreading."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import HealthConfig, SchedulingConfig
from repro.failures.health import BlacklistTracker
from repro.metrics.perf import HealthCounters
from repro.network.topology import GBPS, Topology
from repro.scheduler.task import Task
from repro.scheduler.task_scheduler import (
    _ANY,
    _DC_LOCAL,
    _HOST_LOCAL,
    Executor,
    TaskScheduler,
)
from repro.simulation import Simulator


class FakeStage:
    """A minimal stand-in for Stage: the scheduler reads only stage_id."""

    stage_id = 0


def build_topology(hosts_per_dc, dcs):
    topo = Topology()
    for dc in dcs:
        topo.add_datacenter(dc)
        for index in range(hosts_per_dc):
            topo.add_host(f"{dc}{index}", dc, access_bandwidth=GBPS)
    for i, src in enumerate(dcs):
        for dst in dcs[i + 1:]:
            topo.connect_datacenters(src, dst, GBPS)
    return topo


def build(cores=1, hosts_per_dc=2, dcs=("A", "B"), **config_kwargs):
    sim = Simulator()
    topo = build_topology(hosts_per_dc, dcs)
    executors = {
        name: Executor(name, cores) for name in topo.all_host_names()
    }
    launched = []

    def run_task(task, host):
        launched.append((task, host, sim.now))
        yield sim.timeout(task_duration[0])
        return host

    task_duration = [1.0]
    config = SchedulingConfig(**config_kwargs)
    scheduler = TaskScheduler(sim, topo, executors, config, run_task)
    stage = FakeStage()
    return sim, scheduler, stage, launched, task_duration


def test_task_with_free_preferred_host_runs_there_immediately():
    sim, scheduler, stage, launched, _d = build()
    done = scheduler.submit(Task(stage, 0, preferred_hosts=["B1"]))
    sim.run()
    assert done.value == "B1"
    assert launched[0][2] == 0.0


def test_no_preference_task_runs_anywhere_immediately():
    sim, scheduler, stage, launched, _d = build()
    done = scheduler.submit(Task(stage, 0, preferred_hosts=[]))
    sim.run()
    assert done.triggered


def test_tasks_queue_when_slots_busy():
    sim, scheduler, stage, launched, duration = build(
        cores=1, hosts_per_dc=1, dcs=("A",)
    )
    duration[0] = 5.0
    first = scheduler.submit(Task(stage, 0, []))
    second = scheduler.submit(Task(stage, 1, []))
    sim.run()
    starts = sorted(time for _t, _h, time in launched)
    assert starts == [0.0, 5.0]


def test_locality_wait_then_same_datacenter():
    """Preferred host busy: task upgrades to DC-local after the wait."""
    sim, scheduler, stage, launched, duration = build(
        cores=1, locality_wait_host=2.0, locality_wait_datacenter=100.0
    )
    duration[0] = 50.0
    scheduler.submit(Task(stage, 0, ["A0"]))  # occupies A0
    waiting = scheduler.submit(Task(stage, 1, ["A0"]))
    sim.run(until=10.0)
    assert not waiting.triggered  # launched at t=2, still running
    # The second task must have launched on the other A host at t=2.
    second = [entry for entry in launched if entry[0].partition == 1]
    assert second and second[0][1] == "A1"
    assert second[0][2] == pytest.approx(2.0)


def test_locality_wait_then_anywhere():
    """Whole preferred DC busy: task escapes after host+dc waits."""
    sim, scheduler, stage, launched, duration = build(
        cores=1, locality_wait_host=1.0, locality_wait_datacenter=3.0
    )
    duration[0] = 50.0
    scheduler.submit(Task(stage, 0, ["A0"]))
    scheduler.submit(Task(stage, 1, ["A1"]))
    escapee = scheduler.submit(Task(stage, 2, ["A0", "A1"]))
    sim.run(until=10.0)
    third = [entry for entry in launched if entry[0].partition == 2]
    assert third and third[0][1] in ("B0", "B1")
    assert third[0][2] == pytest.approx(4.0)


def test_per_task_wait_override_pins_longer():
    sim, scheduler, stage, launched, duration = build(
        cores=1, locality_wait_host=1.0, locality_wait_datacenter=1.0
    )
    duration[0] = 6.0
    scheduler.submit(Task(stage, 0, ["A0"]))
    scheduler.submit(Task(stage, 1, ["A1"]))
    pinned = Task(stage, 2, ["A0", "A1"])
    pinned.locality_wait_host = 0.5
    pinned.locality_wait_datacenter = 1000.0
    scheduler.submit(pinned)
    sim.run()
    third = [entry for entry in launched if entry[0].partition == 2]
    # It waited for an A slot (freed at t=6) instead of escaping to B.
    assert third[0][1] in ("A0", "A1")
    assert third[0][2] == pytest.approx(6.0)


def test_host_local_preferred_over_earlier_non_local():
    """A host-local task beats an earlier-submitted remote-only task for
    a slot on its preferred host when both are eligible."""
    sim, scheduler, stage, launched, duration = build(cores=1)
    duration[0] = 2.0
    # Fill every slot first.
    for index, host in enumerate(("A0", "A1", "B0", "B1")):
        scheduler.submit(Task(stage, index, [host]))
    remote = scheduler.submit(Task(stage, 10, ["B0"]))
    local = scheduler.submit(Task(stage, 11, ["A0"]))
    sim.run()
    a0_tasks = [e for e in launched if e[1] == "A0"]
    # At t=2 A0 frees; the host-local task 11 takes it, not task 10.
    assert [e[0].partition for e in a0_tasks] == [0, 11]


def test_spread_across_hosts_for_no_pref_tasks():
    sim, scheduler, stage, launched, duration = build(cores=2)
    duration[0] = 10.0
    for index in range(4):
        scheduler.submit(Task(stage, index, []))
    sim.run(until=1.0)
    hosts = [host for _t, host, _time in launched]
    assert len(set(hosts)) == 4  # one per host before doubling up


def test_failing_task_body_fails_completion():
    sim, scheduler, stage, launched, _d = build()

    def exploding(task, host):
        yield sim.timeout(0.1)
        raise RuntimeError("task body crashed")

    scheduler.run_task = exploding
    done = scheduler.submit(Task(stage, 0, []))
    sim.run()
    assert done.failed
    # The slot must have been released.
    assert scheduler.total_free_slots() == 4


def test_scheduler_requires_executors():
    sim = Simulator()
    topo = Topology()
    topo.add_datacenter("A")
    topo.add_host("A0", "A")
    from repro.errors import NoEligibleExecutorError

    with pytest.raises(NoEligibleExecutorError):
        TaskScheduler(sim, topo, {}, SchedulingConfig(), lambda t, h: None)


def test_executor_validation():
    from repro.errors import SchedulerError

    with pytest.raises(SchedulerError):
        Executor("h", cores=0)


def test_superseded_wakeups_are_cancelled():
    """Tier thresholds arriving in decreasing order re-plan the wakeup;
    each superseded timer is cancelled, so ``_on_wake`` runs once per
    threshold reached rather than once per timer ever armed."""
    sim, scheduler, stage, launched, duration = build(
        cores=1, locality_wait_datacenter=1000.0
    )
    duration[0] = 100.0
    wakes = []
    wake = scheduler._on_wake

    def counting_wake():
        wakes.append(sim.now)
        wake()

    scheduler._on_wake = counting_wake
    scheduler.submit(Task(stage, 0, ["A0"]))  # A0 busy until t=100
    scheduler.submit(Task(stage, 1, ["A1"]))  # A1 busy until t=100

    def waiter(partition, host_wait):
        task = Task(stage, partition, ["A0"])
        task.locality_wait_host = host_wait
        scheduler.submit(task)

    # Host-tier thresholds at t=10, 6 and 4: each plans an earlier wake.
    waiter(2, 10.0)
    sim.call_at(1.0, lambda: waiter(3, 5.0))
    sim.call_at(2.0, lambda: waiter(4, 2.0))
    sim.run()
    # The host tiers expire at t=4, 6 and 10 while the A datacenter is
    # still busy; one timer each, never a duplicate for one threshold.
    assert wakes[:3] == [4.0, 6.0, 10.0]
    assert len(wakes) == len(set(wakes))
    placed = {task.partition: (host, at) for task, host, at in launched}
    assert placed[2] == ("A0", 100.0)
    assert placed[3] == ("A1", 100.0)
    assert placed[4] == ("A0", 200.0)


# ----------------------------------------------------------------------
# Property: indexed dispatch == the per-(entry, free host) scan
# ----------------------------------------------------------------------
class ScanOracleScheduler(TaskScheduler):
    """Reference dispatcher: scores every (pending entry, free host)
    pair, rebuilding the preferred datacenters on each check."""

    def _best_assignment(self):
        free_hosts = [
            executor.host
            for executor in self.executors.values()
            if executor.free > 0
        ]
        if not free_hosts:
            return None
        best = None
        for entry in self._pending:
            vetoed = self._vetoed_hosts(entry.task)
            allowed = self._allowed_hosts(entry.task)
            for host in free_hosts:
                if allowed is not None and host not in allowed:
                    continue
                if vetoed is not None and host in vetoed:
                    continue
                level = self._eligibility(entry.task, host)
                if level is None:
                    continue
                key = (level, entry.sequence, -self.executors[host].free)
                if best is None or key < best[:3]:
                    best = (*key, entry, host)
        if best is None:
            return None
        return best[3], best[4]

    def _eligibility(self, task, host):
        if not task.preferred_hosts:
            return _ANY
        if host in task.preferred_hosts:
            return _HOST_LOCAL
        if not any(pref in self.executors for pref in task.preferred_hosts):
            return _ANY
        host_wait, dc_wait = self._task_waits(task)
        waited = self.sim.now - task.submit_time
        if waited >= host_wait:
            preferred_dcs = [
                self.topology.datacenter_of(pref)
                for pref in task.preferred_hosts
            ]
            if self.topology.datacenter_of(host) in preferred_dcs:
                return _DC_LOCAL
        if waited >= host_wait + dc_wait:
            return _ANY
        return None


_TIMES = st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.3, 5.0])
_WAITS = st.none() | st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.3, 7.0])


@st.composite
def dispatch_scenarios(draw):
    dcs = ("A", "B", "C")[: draw(st.integers(1, 3))]
    hosts_per_dc = draw(st.integers(1, 3))
    hosts = [f"{dc}{index}" for dc in dcs for index in range(hosts_per_dc)]
    host = st.sampled_from(hosts)
    tasks = draw(st.lists(
        st.fixed_dictionaries({
            "at": _TIMES,
            "prefs": st.lists(host, max_size=3, unique=True),
            "allowed": st.none() | st.frozensets(host, min_size=1),
            "host_wait": _WAITS,
            "dc_wait": _WAITS,
            "duration": st.sampled_from([0.5, 1.0, 2.0, 4.5]),
        }),
        min_size=1,
        max_size=14,
    ))
    return {
        "dcs": dcs,
        "hosts_per_dc": hosts_per_dc,
        "cores": draw(st.integers(1, 2)),
        "tasks": tasks,
        "exclusions": draw(st.lists(st.tuples(_TIMES, host), max_size=3)),
        "blacklist_timeout": draw(st.sampled_from([0.5, 2.0, 7.5])),
        "removals": draw(st.lists(st.tuples(_TIMES, host), max_size=2)),
    }


def run_dispatch_scenario(scheduler_cls, scenario):
    """(task, host, launch time) for every launch, plus leftovers."""
    sim = Simulator()
    topo = build_topology(scenario["hosts_per_dc"], scenario["dcs"])
    executors = {
        name: Executor(name, scenario["cores"])
        for name in topo.all_host_names()
    }
    blacklist = BlacklistTracker(
        HealthConfig(
            blacklist_enabled=True,
            blacklist_timeout=scenario["blacklist_timeout"],
        ),
        HealthCounters(),
        topo,
        sim,
    )
    specs = scenario["tasks"]
    launches = []

    def run_task(task, host):
        launches.append((task.partition, host, sim.now))
        yield sim.timeout(specs[task.partition]["duration"])
        return host

    config = SchedulingConfig(
        locality_wait_host=1.0, locality_wait_datacenter=2.0
    )
    scheduler = scheduler_cls(
        sim, topo, executors, config, run_task, blacklist=blacklist
    )
    stage = FakeStage()

    def submit(partition):
        spec = specs[partition]
        task = Task(stage, partition, spec["prefs"])
        task.allowed_hosts = spec["allowed"]
        task.locality_wait_host = spec["host_wait"]
        task.locality_wait_datacenter = spec["dc_wait"]
        scheduler.submit(task)

    def remove(host):
        if len(scheduler.executors) > 1:
            scheduler.remove_executor(host)

    for partition, spec in enumerate(specs):
        sim.call_at(spec["at"], lambda p=partition: submit(p))
    for at, host in scenario["exclusions"]:
        sim.call_at(at, lambda h=host: blacklist.exclude_host(h))
    for at, host in scenario["removals"]:
        sim.call_at(at, lambda h=host: remove(h))
    sim.run()
    return launches, scheduler.pending_count


@settings(max_examples=300, deadline=None)
@given(dispatch_scenarios())
def test_indexed_dispatch_matches_scan_oracle(scenario):
    expected = run_dispatch_scenario(ScanOracleScheduler, scenario)
    assert run_dispatch_scenario(TaskScheduler, scenario) == expected
