"""Event order and plan-round accounting of the lazily armed vector drive.

Each cascade plan keeps one pending departure timer; firing departure
``k`` arms ``k + 1``.  The kernel order must still be exactly the order
of arming every departure when the plan is built:

* a plan reserves its sequence numbers at build time, so a later-armed
  departure still fires before an entry for the same instant that was
  scheduled after the plan was built;
* a departure due at the instant its predecessor fires runs right
  after it, ahead of the rest of that instant.

The pinned completion orders, probe readings and ``processed_events``
are those of arming every departure up front.  A probe timer, scheduled
just after the plans are built and due at a departure instant, records
how many flows are still active when it fires.
"""

from repro.network.fabric import NetworkFabric
from repro.network.topology import GBPS, Topology
from repro.simulation import Simulator


def _build(hosts):
    sim = Simulator()
    topo = Topology()
    topo.add_datacenter("A")
    for host in hosts:
        topo.add_host(host, "A", access_bandwidth=GBPS, access_latency=0.0)
    return sim, NetworkFabric(sim, topo)


def _run(hosts, flows, start_at, probe_flow, probe_segment):
    """Start ``flows`` at ``start_at``; probe at ``probe_flow``'s plan's
    departure ``probe_segment``.  Returns (order, processed events)."""
    sim, fabric = _build(hosts)
    order = []
    events = {}

    def start():
        for label, src, dst, size in flows:
            event = fabric.transfer(src, dst, size)
            events[label] = event
            event.add_callback(lambda _e, label=label: order.append(label))
        # Runs after the recompute that builds the plans.
        sim.call_at(sim.now, arm_probe)

    def arm_probe():
        flow = fabric._flow_by_event[events[probe_flow]]
        plan = fabric._plans[flow.flow_id]
        due = plan.base + plan.depart_offset(probe_segment)
        sim.call_at(
            due, lambda: order.append(f"probe:{fabric.active_flow_count}")
        )

    sim.call_at(start_at, start)
    sim.run()
    assert fabric.active_flow_count == 0
    return order, sim.processed_events


def test_two_components_departing_on_one_instant_keep_plan_order():
    """Two general plans (one uplink, two downlinks each) depart at the
    same two instants.  Their second departures are armed when the
    first ones fire, yet still precede the probe scheduled at build
    time, and the plan built first departs first."""
    order, processed = _run(
        ["a1", "a2", "a3", "a4", "a5", "a6"],
        (
            ("p", "a1", "a2", 1e8),
            ("q", "a1", "a3", 2e8),
            ("r", "a4", "a5", 1e8),
            ("s", "a4", "a6", 2e8),
        ),
        start_at=0.0,
        probe_flow="p",
        probe_segment=1,
    )
    assert order == ["p", "r", "probe:0", "q", "s"]
    assert processed == 12


def test_consecutive_segments_on_one_absolute_time_run_back_to_back():
    """Flows x and y drain 3e-12 relative apart: two segments (beyond
    the tie window), but at base 1e5 s both boundaries round to one
    absolute time.  y's departure, armed when x's fires, must run
    before the probe due at that same instant."""
    size = float(GBPS)
    order, processed = _run(
        ["a1", "a2", "a3", "a4"],
        (
            ("x", "a1", "a2", size),
            ("y", "a1", "a3", size * (1 + 3e-12)),
            ("z", "a1", "a4", 5 * size),
        ),
        start_at=1e5,
        probe_flow="x",
        probe_segment=0,
    )
    assert order == ["probe:1", "x", "y", "z"]
    assert processed == 10


def test_consecutive_segments_scenario_shares_one_instant():
    """Guard for the test above: its plan really has two distinct
    segment boundaries that land on one absolute time."""
    size = float(GBPS)
    sim, fabric = _build(["a1", "a2", "a3", "a4"])

    def start():
        fabric.transfer("a1", "a2", size)
        fabric.transfer("a1", "a3", size * (1 + 3e-12))
        fabric.transfer("a1", "a4", 5 * size)

    sim.call_at(1e5, start)
    sim.run(until=1e5)
    plan = fabric._plans[0]
    first, second = plan.depart_offset(0), plan.depart_offset(1)
    assert first != second
    assert plan.base + first == plan.base + second
    assert plan.departs[:2] == [[0], [1]]


def test_invalidated_plan_computes_only_the_rounds_it_used():
    """A second arrival invalidates a 50-flow general plan before its
    first departure: one fill round per plan, not one per departure."""
    hosts = ["a1", "a2", "a3", "a4"]
    sim, fabric = _build(hosts)
    for index in range(50):
        fabric.transfer("a1", hosts[1 + index % 2], 1e6 * (index + 1))
    sim.call_at(0.001, lambda: fabric.transfer("a1", "a4", 5e5))
    sim.run(until=0.001)
    assert fabric.perf.solves == 2
    assert fabric.perf.plan_rounds == 2
    sim.run()
    assert fabric.active_flow_count == 0
    # The surviving plan computes one round per departure segment.
    assert fabric.perf.plan_rounds <= 2 + 50
