"""Flow-level wide-area network model.

The model has three layers:

* :mod:`repro.network.topology` — datacenters, hosts, and directed links
  (host access links plus one WAN link per ordered datacenter pair).
* :mod:`repro.network.fair_share` — the progressive-filling max-min fair
  bandwidth allocator, shared by all concurrent flows.
* :mod:`repro.network.fabric` — the :class:`NetworkFabric` simulation
  component: start a transfer, get an event that fires on completion, with
  rates recomputed whenever flows start/finish or link capacity jitters.
  Its vector drive scopes each event to one connected component of the
  :class:`~repro.network.flow_graph.FlowGraph`.

Cross-datacenter traffic accounting (Fig. 8 of the paper) lives in
:mod:`repro.network.traffic_monitor`; the stochastic WAN bandwidth
fluctuation of §V-A lives in :mod:`repro.network.jitter`.
"""

from repro.network.topology import Datacenter, Host, Link, Topology
from repro.network.fair_share import max_min_fair_rates, verify_allocation
from repro.network.fabric import Flow, NetworkFabric
from repro.network.flow_graph import FlowGraph
from repro.network.jitter import BandwidthJitter, JitterSpec
from repro.network.traffic_monitor import TrafficMonitor

__all__ = [
    "Datacenter",
    "Host",
    "Link",
    "Topology",
    "max_min_fair_rates",
    "verify_allocation",
    "Flow",
    "NetworkFabric",
    "FlowGraph",
    "BandwidthJitter",
    "JitterSpec",
    "TrafficMonitor",
]
