"""Lazy general cascade plans vs. the eager schedule they replace.

:class:`repro.network.cascade.GeneralPlan` computes one progressive-fill
round only when a departure timer or a replay query reaches it.  The
reference below is the eager builder it replaced, kept verbatim: one
loop that plays the whole cascade up front, a full (segments x flows)
rate matrix and an ``np.cumsum(axis=0)`` of delivered bytes.  Every
boundary, rate, departing set and replayed remaining-bytes value must
match it bit for bit (``float.hex``), whatever order the lazy plan is
queried in.
"""

from typing import List, Optional, Sequence, Tuple

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.metrics.perf import FabricPerfCounters
from repro.network.cascade import GeneralPlan
from repro.network.vector_solver import build_csr, progressive_fill

_TIE = 1e-12


# ----------------------------------------------------------------------
# The eager reference (verbatim from the pre-lazy cascade module)
# ----------------------------------------------------------------------
def _general_schedule(
    remaining: np.ndarray,
    routes: Sequence[np.ndarray],
    capacities: np.ndarray,
    weights: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, List[List[int]]]:
    """Iterative cascade: one progressive fill per departure round."""
    indices, indptr, flow_of_entry = build_csr(routes)
    count = len(routes)
    active = np.ones(count, dtype=bool)
    live_remaining = remaining.copy()
    bounds = [0.0]
    rate_rows = []
    departs = []
    elapsed = 0.0
    while active.any():
        rates = progressive_fill(
            indices, indptr, flow_of_entry, capacities, active, weights=weights
        )
        step = np.full(count, np.inf)
        step[active] = live_remaining[active] / rates[active]
        shortest = float(step.min())
        departing = active & (step <= shortest * (1.0 + _TIE))
        elapsed += shortest
        live_remaining -= rates * shortest
        np.clip(live_remaining, 0.0, None, out=live_remaining)
        live_remaining[departing] = 0.0
        rate_rows.append(rates)
        bounds.append(elapsed)
        departs.append(np.flatnonzero(departing).tolist())
        active &= ~departing
    return np.asarray(bounds), np.asarray(rate_rows), departs


class _EagerGeneralPlan:
    """Iterative cascade with the full (segments x flows) rate matrix."""

    def __init__(
        self,
        base: float,
        init_remaining: np.ndarray,
        bounds: np.ndarray,
        rates: np.ndarray,
        departs: List[List[int]],
    ) -> None:
        self.base = base
        self.init_remaining = init_remaining
        self.bounds = bounds
        self.departs = departs
        self.rates = rates
        # _cum[k, pos]: bytes delivered to pos before segment k starts.
        cum = np.empty((rates.shape[0] + 1, rates.shape[1]))
        cum[0] = 0.0
        np.cumsum(rates * np.diff(bounds)[:, None], axis=0, out=cum[1:])
        self._cum = cum

    def _segment(self, offset: float) -> int:
        k = int(np.searchsorted(self.bounds, offset, side="right")) - 1
        last = len(self.departs) - 1
        if k < 0:
            return 0
        if k > last:
            return last
        return k

    def depart_times(self) -> List[float]:
        """Absolute simulated time of each departure segment boundary."""
        return (self.base + self.bounds[1:]).tolist()

    def remaining_at(self, pos: int, now: float) -> float:
        offset = now - self.base
        k = self._segment(offset)
        remaining = (
            self.init_remaining[pos]
            - self._cum[k, pos]
            - self.rates[k, pos] * (offset - self.bounds[k])
        )
        return float(remaining) if remaining > 0.0 else 0.0

    def rate_at(self, pos: int, now: float) -> float:
        return float(self.rates[self._segment(now - self.base), pos])


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def _components(draw):
    """A random component: routes over a few links (repeats allowed, so
    some routes cross a link twice), capacities, remaining bytes and
    optional non-uniform weights."""
    num_links = draw(st.integers(1, 5))
    num_flows = draw(st.integers(1, 14))
    routes = [
        np.asarray(
            draw(
                st.lists(
                    st.integers(0, num_links - 1), min_size=1, max_size=4
                )
            ),
            dtype=np.intp,
        )
        for _ in range(num_flows)
    ]
    capacities = np.asarray(
        draw(
            st.lists(
                st.floats(1e3, 1e9, allow_nan=False),
                min_size=num_links,
                max_size=num_links,
            )
        )
    )
    sizes = st.one_of(
        st.floats(1.0, 1e10, allow_nan=False),
        # Repeated sizes make simultaneous departures (one segment,
        # several flows) likely.
        st.sampled_from([1e6, 4e6, 5e7]),
    )
    remaining = np.asarray(
        draw(st.lists(sizes, min_size=num_flows, max_size=num_flows))
    )
    weights = None
    if draw(st.booleans()):
        weights = np.asarray(
            draw(
                st.lists(
                    st.sampled_from([0.5, 1.0, 2.0, 3.0, 8.0]),
                    min_size=num_flows,
                    max_size=num_flows,
                )
            )
        )
    base = draw(st.sampled_from([0.0, 1.5, 123.456, 86400.125]))
    return routes, capacities, remaining, weights, base


def _pair(component):
    routes, capacities, remaining, weights, base = component
    bounds, rates, departs = _general_schedule(
        remaining, routes, capacities, weights
    )
    eager = _EagerGeneralPlan(base, remaining, bounds, rates, departs)
    lazy = GeneralPlan(
        list(range(len(routes))), base, remaining, routes, capacities, weights
    )
    return eager, lazy


def _hex(values) -> List[str]:
    return [float(value).hex() for value in values]


def _assert_replay_matches(eager, lazy, now: float) -> None:
    for pos in range(len(eager.init_remaining)):
        assert lazy.remaining_at(pos, now).hex() == (
            eager.remaining_at(pos, now).hex()
        ), (pos, now)
        assert lazy.rate_at(pos, now).hex() == eager.rate_at(pos, now).hex(), (
            pos,
            now,
        )


def _assert_schedule_matches(eager, lazy) -> None:
    assert _hex(lazy.bounds) == _hex(eager.bounds)
    assert lazy.departs == eager.departs
    assert len(lazy.rates) == len(eager.rates)
    for lazy_row, eager_row in zip(lazy.rates, eager.rates):
        assert _hex(lazy_row) == _hex(eager_row)


# ----------------------------------------------------------------------
# Oracle properties
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(_components(), st.data())
def test_random_queries_match_eager_bit_for_bit(component, data):
    """Replay queries in random order — far offsets first included —
    at random offsets, exact boundaries and past the last departure."""
    eager, lazy = _pair(component)
    horizon = float(eager.bounds[-1])
    boundaries = [eager.base + bound for bound in eager.bounds.tolist()]
    queries = data.draw(
        st.lists(
            st.one_of(
                st.floats(0.0, horizon * 1.5 + 1.0, allow_nan=False).map(
                    lambda offset: eager.base + offset
                ),
                st.sampled_from(boundaries),
                st.just(eager.base + horizon * 2.0 + 1.0),
            ),
            min_size=1,
            max_size=12,
        )
    )
    for now in queries:
        _assert_replay_matches(eager, lazy, now)
    # Every departure instant, armed in order as the fabric does.
    segment = 0
    while True:
        offset = lazy.depart_offset(segment)
        if offset is None:
            break
        assert (lazy.base + offset).hex() == (
            eager.depart_times()[segment].hex()
        )
        segment += 1
    assert segment == len(eager.departs)
    _assert_schedule_matches(eager, lazy)


@settings(max_examples=100, deadline=None)
@given(_components())
def test_timer_order_extension_matches_eager(component):
    """Departures armed one at a time, with replay queries at and
    between each boundary, extend the plan exactly one round ahead."""
    eager, lazy = _pair(component)
    bounds = eager.bounds.tolist()
    for segment in range(len(eager.departs)):
        # Round ``segment`` was computed when the previous departure
        # armed this one (or at construction, for segment 0).
        assert len(lazy.departs) == segment + 1
        start = eager.base + bounds[segment]
        middle = eager.base + (bounds[segment] + bounds[segment + 1]) / 2.0
        _assert_replay_matches(eager, lazy, start)
        _assert_replay_matches(eager, lazy, middle)
        assert lazy.departs[segment] == eager.departs[segment]
        lazy.depart_offset(segment + 1)
    assert lazy.depart_offset(len(eager.departs)) is None
    _assert_replay_matches(eager, lazy, eager.base + bounds[-1] + 1.0)
    _assert_schedule_matches(eager, lazy)


def test_duplicate_link_route_with_weights_matches_eager():
    """A hand-built weighted component whose routes cross link 0 twice."""
    routes = [
        np.asarray([0, 0, 1], dtype=np.intp),
        np.asarray([0], dtype=np.intp),
        np.asarray([1, 2], dtype=np.intp),
        np.asarray([2, 2], dtype=np.intp),
    ]
    component = (
        routes,
        np.asarray([1e8, 3e7, 5e7]),
        np.asarray([4e8, 1e8, 2.5e8, 9e7]),
        np.asarray([2.0, 1.0, 1.0, 3.0]),
        10.0,
    )
    eager, lazy = _pair(component)
    assert len(eager.departs) > 1
    _assert_replay_matches(eager, lazy, 10.0 + float(eager.bounds[-1]) * 0.7)
    _assert_replay_matches(eager, lazy, 10.0 + float(eager.bounds[1]))
    while lazy.depart_offset(len(lazy.departs)) is not None:
        pass
    _assert_schedule_matches(eager, lazy)


def test_rounds_are_computed_on_demand_and_counted():
    """Construction computes round 0 only; a replay query computes the
    rounds up to the queried offset; ``plan_rounds`` counts each once."""
    count = 6
    routes = [np.asarray([0, 1 + index % 2], dtype=np.intp) for index in range(count)]
    remaining = np.asarray([float(index + 1) * 1e6 for index in range(count)])
    capacities = np.asarray([1e6, 4e5, 9e5])
    counters = FabricPerfCounters()
    lazy = GeneralPlan(
        list(range(count)), 0.0, remaining, routes, capacities, None, counters
    )
    assert counters.plan_rounds == 1
    assert len(lazy.departs) == 1
    bounds, _rates, departs = _general_schedule(remaining, routes, capacities)
    lazy.remaining_at(0, (bounds[2] + bounds[3]) / 2.0)
    assert counters.plan_rounds == 3
    lazy.remaining_at(0, float(bounds[-1]) + 5.0)
    assert counters.plan_rounds == len(departs)
    assert lazy.depart_offset(len(departs)) is None
    assert counters.plan_rounds == len(departs)
