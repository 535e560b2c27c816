"""Vectorized solver vs. the scalar oracle, and duplicate-link semantics.

The numpy CSR kernel in :mod:`repro.network.vector_solver` must agree
with the scalar progressive-filling solver to 1e-9 relative on arbitrary
topologies — including routes that traverse the same link twice, flows
with empty (unconstrained, ``inf``) routes, and degenerate single-link
meshes.  The scalar solver is the oracle; these tests are the contract
that lets the fabric's vector drive trust the kernel.

``max_min_fair_rates_numpy`` below wraps the kernel in the scalar
solver's dict API.  Only the tests call it, so it lives here.
"""

import math
from typing import Dict, Hashable, Mapping, Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.network.fair_share import max_min_fair_rates, verify_allocation
from repro.network.flow_graph import FlowGraph
from repro.network.topology import Link
from repro.network.vector_solver import build_csr, progressive_fill


def max_min_fair_rates_numpy(
    flow_routes: Mapping[Hashable, Sequence[Hashable]],
    link_capacities: Mapping[Hashable, float],
    flow_weights: Optional[Mapping[Hashable, float]] = None,
) -> Dict[Hashable, float]:
    """Drop-in vectorized equivalent of :func:`~repro.network.
    fair_share.max_min_fair_rates` (same dict API, same semantics:
    empty routes get ``inf``, capacity is consumed per traversal for
    routes crossing a link more than once, optional per-flow weights
    for weighted fairness — flows absent from the mapping weigh 1.0)."""
    rates: Dict[Hashable, float] = {}
    constrained = []
    for flow_id, route in flow_routes.items():
        if route:
            constrained.append(flow_id)
        else:
            rates[flow_id] = float("inf")
    if not constrained:
        return rates

    link_ids: Dict[Hashable, int] = {}
    capacities = []
    routes = []
    for flow_id in constrained:
        row = np.empty(len(flow_routes[flow_id]), dtype=np.intp)
        for position, link in enumerate(flow_routes[flow_id]):
            index = link_ids.get(link)
            if index is None:
                capacity = float(link_capacities[link])
                if capacity <= 0:
                    raise ValueError(f"link {link!r} has capacity <= 0")
                index = len(link_ids)
                link_ids[link] = index
                capacities.append(capacity)
            row[position] = index
        routes.append(row)

    weight_array: Optional[np.ndarray] = None
    if flow_weights:
        weight_array = np.empty(len(constrained))
        for position, flow_id in enumerate(constrained):
            weight = float(flow_weights.get(flow_id, 1.0))
            if weight <= 0:
                raise ValueError(f"flow {flow_id!r} has weight <= 0")
            weight_array[position] = weight

    indices, indptr, flow_of_entry = build_csr(routes)
    solved = progressive_fill(
        indices,
        indptr,
        flow_of_entry,
        np.asarray(capacities),
        np.ones(len(constrained), dtype=bool),
        weights=weight_array,
    )
    for position, flow_id in enumerate(constrained):
        rates[flow_id] = float(solved[position])
    return rates


def _assert_rates_match(scalar, vectorized, rel=1e-9):
    assert scalar.keys() == vectorized.keys()
    for flow_id, expected in scalar.items():
        got = vectorized[flow_id]
        if math.isinf(expected):
            assert math.isinf(got), f"{flow_id}: {got} != inf"
        else:
            assert got == pytest.approx(expected, rel=rel, abs=1e-9), (
                f"{flow_id}: vectorized {got} != scalar {expected}"
            )


# ----------------------------------------------------------------------
# Exact cases
# ----------------------------------------------------------------------
def test_matches_classic_three_flow_example():
    flows = {"f1": ["a", "b"], "f2": ["a"], "f3": ["b"]}
    links = {"a": 10.0, "b": 4.0}
    _assert_rates_match(
        max_min_fair_rates(flows, links),
        max_min_fair_rates_numpy(flows, links),
    )


def test_empty_route_is_infinite():
    rates = max_min_fair_rates_numpy({"free": [], "pinned": ["l"]}, {"l": 8.0})
    assert math.isinf(rates["free"])
    assert rates["pinned"] == pytest.approx(8.0)


def test_all_empty_routes():
    rates = max_min_fair_rates_numpy({"a": [], "b": []}, {})
    assert math.isinf(rates["a"]) and math.isinf(rates["b"])


def test_no_flows():
    assert max_min_fair_rates_numpy({}, {"l": 1.0}) == {}


def test_zero_capacity_rejected():
    with pytest.raises(ValueError):
        max_min_fair_rates_numpy({"f": ["l"]}, {"l": 0.0})


def test_duplicate_link_consumes_capacity_twice():
    """A route crossing the same link twice gets half the solo rate and
    both solvers agree — the multi-traversal semantics documented in
    fair_share."""
    flows = {"relay": ["wan", "wan"], "plain": ["wan"]}
    links = {"wan": 9.0}
    scalar = max_min_fair_rates(flows, links)
    # Filling raises both at share s until 2s + s = 9 -> s = 3.
    assert scalar["relay"] == pytest.approx(3.0)
    assert scalar["plain"] == pytest.approx(3.0)
    _assert_rates_match(scalar, max_min_fair_rates_numpy(flows, links))
    # verify_allocation charges per occurrence, so the solution it sees
    # exactly fills the link.
    verify_allocation(flows, links, scalar)


# ----------------------------------------------------------------------
# Property-based equivalence (the oracle contract)
# ----------------------------------------------------------------------
@st.composite
def _scenarios(draw):
    """Random topologies with duplicate-link routes and inf-route flows."""
    num_links = draw(st.integers(min_value=1, max_value=7))
    links = {f"l{i}": draw(st.floats(0.5, 100.0)) for i in range(num_links)}
    num_flows = draw(st.integers(min_value=0, max_value=10))
    flows = {}
    for i in range(num_flows):
        route = draw(
            st.lists(
                st.sampled_from(sorted(links)),
                min_size=0,  # empty -> unconstrained (inf)
                max_size=num_links + 2,  # > num_links forces duplicates
            )
        )
        flows[f"f{i}"] = route
    return flows, links


@given(_scenarios())
@settings(max_examples=300, deadline=None)
def test_vectorized_matches_scalar_oracle(scenario):
    flows, links = scenario
    _assert_rates_match(
        max_min_fair_rates(flows, links),
        max_min_fair_rates_numpy(flows, links),
    )


@given(_scenarios())
@settings(max_examples=150, deadline=None)
def test_vectorized_allocation_is_feasible(scenario):
    flows, links = scenario
    constrained = {f: r for f, r in flows.items() if r}
    rates = max_min_fair_rates_numpy(flows, links)
    if constrained:
        verify_allocation(
            constrained,
            {l: c for l, c in links.items()},
            {f: rates[f] for f in constrained},
        )


# ----------------------------------------------------------------------
# Duplicate links through the flow graph (regression: the old
# remove_flow raised KeyError unwinding the second occurrence)
# ----------------------------------------------------------------------
def test_incremental_engine_handles_duplicate_links():
    graph = FlowGraph()
    wan = Link("wan", 10.0, is_wan=True)
    side = Link("side", 50.0)
    graph.add_flow(1, [wan, side, wan])
    graph.add_flow(2, [wan])
    assert graph.component(1) == {1, 2}
    rates = max_min_fair_rates(*graph.subproblem([1, 2]))
    # 2*r1 + r2 = 10 with r1 = r2 -> both 10/3.
    assert rates[1] == pytest.approx(10.0 / 3.0)
    assert rates[2] == pytest.approx(10.0 / 3.0)
    graph.remove_flow(1)  # must not KeyError on the repeated link
    assert max_min_fair_rates(*graph.subproblem([2])) == {2: 10.0}
    graph.remove_flow(2)
    assert graph.solver_inputs() == ({}, {})
    assert graph.solver_weights() is None
