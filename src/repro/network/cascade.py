"""Cascade plans: lazily extended departure schedules for the vector drive.

Re-solving the dirty connected component on *every* departure costs
one Python BFS and one scalar solve per flow that drains.  But between
external perturbations (arrivals, cancels, capacity changes) a
component's future is fully determined: max-min fair sharing is a
piecewise-linear fluid system, so the sequence of departures can be
played forward without touching the event loop.  A
:class:`CascadePlan` holds that future — the segment boundaries,
per-segment rates, and which flows drain at each boundary.  Departures
then fire as bare timers
(:meth:`~repro.simulation.kernel.Simulator.call_at_reserved`) with
**zero** re-solves; a perturbation invalidates the affected plans
(cancelling their one pending timer) and replays them up to *now* to
recover each member's exact remaining bytes before re-planning.

Two plan shapes:

* :class:`UniformPlan` — when every flow in the component has the same
  route signature (the dominant shuffle pattern: a burst of fetches
  between one host pair), the whole cascade collapses to a cumulative
  sum over the size-sorted remaining bytes: with ``k`` flows left the
  shared rate is ``min(C*/k, cap)`` where
  ``C* = min_j capacity_j / multiplicity_j`` over the shared route, so
  each departure gap costs ``(e_i - e_{i-1}) / rate(k)`` seconds.
  Because every alive flow always runs at the same rate, the plan
  stores only 1-D per-segment arrays — no per-flow rate matrix at all;
* :class:`GeneralPlan` — one :func:`~repro.network.vector_solver.
  progressive_fill` per departure round on the component's CSR arrays,
  **lazily extended**: a round is computed only when a departure timer
  or a replay query reaches it.  A plan that the next arrival
  invalidates after two departures has paid for two rounds, not for
  its whole cascade.

Replay is exact: each plan keeps the cumulative bytes delivered at
every computed segment boundary, so ``remaining_at(pos, t)`` is one
binary search plus a fused multiply-add.  A lazily computed round runs
exactly the operations an eager loop would, so every boundary, rate
and replayed byte count is bit-identical to computing the whole
cascade up front.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.metrics.perf import FabricPerfCounters
from repro.network.vector_solver import build_csr, progressive_fill

# Departures within this relative window collapse into one segment (and
# one timer); keeps float noise from splitting simultaneous drains.
_TIE = 1e-12


class CascadePlan:
    """One component's future (base class; see subclasses).

    ``bounds`` are time offsets from ``base`` (``bounds[0] == 0``);
    segment ``k`` spans ``bounds[k]`` to ``bounds[k+1]``, and the flows
    at positions ``departs[k]`` drain exactly at ``bounds[k+1]``.
    Positions index ``flow_ids`` — the plan's own member order, which
    need not match the caller's (``UniformPlan`` sorts members into
    departure order so each ``departs[k]`` is a contiguous range).

    ``timer`` is the one pending departure timer and ``sequence`` the
    first of the kernel sequence numbers the owner reserved for the
    plan (segment ``k`` fires with ``sequence + k``); both belong to
    the fabric that arms the plan.
    """

    __slots__ = (
        "flow_ids",
        "pos_of",
        "base",
        "init_remaining",
        "bounds",
        "departs",
        "timer",
        "sequence",
        "alive",
    )

    def __init__(
        self,
        flow_ids: List[int],
        base: float,
        init_remaining: np.ndarray,
        bounds,
        departs: List[List[int]],
    ) -> None:
        self.flow_ids = flow_ids
        self.pos_of = {fid: pos for pos, fid in enumerate(flow_ids)}
        self.base = base
        self.init_remaining = init_remaining
        self.bounds = bounds
        self.departs = departs
        self.timer = None
        self.sequence = 0
        self.alive = True


class UniformPlan(CascadePlan):
    """Closed-form cascade for identical-route components.

    All alive members share one rate per segment, so replay state is
    three 1-D arrays: segment bounds, segment rates, and the common
    cumulative bytes delivered at each boundary.  The closed form is
    cheap enough to compute whole at build time.
    """

    __slots__ = ("seg_rates", "_cum")

    def __init__(
        self,
        flow_ids: List[int],
        base: float,
        init_remaining: np.ndarray,
        bounds: np.ndarray,
        seg_rates: np.ndarray,
        departs: List[List[int]],
    ) -> None:
        super().__init__(flow_ids, base, init_remaining, bounds, departs)
        self.seg_rates = seg_rates
        # _cum[k]: bytes every still-alive member has delivered by the
        # time segment k starts.
        cum = np.empty(len(bounds))
        cum[0] = 0.0
        np.cumsum(seg_rates * np.diff(bounds), out=cum[1:])
        self._cum = cum

    def depart_offset(self, segment: int) -> Optional[float]:
        """Offset of segment ``segment``'s departure boundary, or
        ``None`` when the cascade has fewer segments."""
        if segment + 1 < len(self.bounds):
            return float(self.bounds[segment + 1])
        return None

    def _segment(self, offset: float) -> int:
        k = int(np.searchsorted(self.bounds, offset, side="right")) - 1
        last = len(self.departs) - 1
        if k < 0:
            return 0
        if k > last:
            return last
        return k

    def _delivered(self, offset: float) -> Tuple[int, float]:
        k = self._segment(offset)
        return k, self._cum[k] + self.seg_rates[k] * (offset - self.bounds[k])

    def remaining_at(self, pos: int, now: float) -> float:
        _k, delivered = self._delivered(now - self.base)
        remaining = self.init_remaining[pos] - delivered
        return float(remaining) if remaining > 0.0 else 0.0

    def rate_at(self, pos: int, now: float) -> float:
        k, delivered = self._delivered(now - self.base)
        if self.init_remaining[pos] - delivered > 0.0:
            return float(self.seg_rates[k])
        return 0.0

    def initial_rate(self, pos: int) -> float:
        return float(self.seg_rates[0])


class GeneralPlan(CascadePlan):
    """Iterative cascade, one progressive-fill round at a time.

    The plan keeps the component's CSR arrays, capacities, weights,
    active mask and live remaining bytes; :meth:`_extend` plays one
    more departure round and appends its boundary, rate row, departing
    positions and cumulative-bytes row.  Round 0 runs at construction
    (it supplies the initial rates and the first departure); later
    rounds run only when a departure timer or a replay query needs
    them.
    """

    __slots__ = (
        "rates",
        "_cum",
        "_indices",
        "_indptr",
        "_flow_of_entry",
        "_capacities",
        "_weights",
        "_active",
        "_live",
        "_elapsed",
        "_counters",
    )

    def __init__(
        self,
        flow_ids: List[int],
        base: float,
        init_remaining: np.ndarray,
        routes: Sequence[np.ndarray],
        capacities: np.ndarray,
        weights: Optional[np.ndarray] = None,
        counters: Optional[FabricPerfCounters] = None,
    ) -> None:
        super().__init__(flow_ids, base, init_remaining, [0.0], [])
        self._indices, self._indptr, self._flow_of_entry = build_csr(routes)
        self._capacities = capacities
        self._weights = weights
        self._active = np.ones(len(routes), dtype=bool)
        self._live = init_remaining.copy()
        self._elapsed = 0.0
        self._counters = counters
        # rates[k]: per-position rates during segment k; _cum[k]: bytes
        # delivered to each position before segment k starts.
        self.rates: List[np.ndarray] = []
        self._cum: List[np.ndarray] = [np.zeros(len(routes))]
        self._extend()

    def _extend(self) -> bool:
        """Compute the next departure round; False once every member
        has departed."""
        active = self._active
        if not active.any():
            return False
        rates = progressive_fill(
            self._indices,
            self._indptr,
            self._flow_of_entry,
            self._capacities,
            active,
            weights=self._weights,
        )
        live = self._live
        step = np.full(len(active), np.inf)
        step[active] = live[active] / rates[active]
        shortest = float(step.min())
        departing = active & (step <= shortest * (1.0 + _TIE))
        self._elapsed += shortest
        live -= rates * shortest
        np.clip(live, 0.0, None, out=live)
        live[departing] = 0.0
        bounds = self.bounds
        # A row-wise running sum of delivered bytes: bit-identical to
        # np.cumsum(axis=0) over the rows (rates are never -0.0).
        self._cum.append(
            self._cum[-1] + rates * (self._elapsed - bounds[-1])
        )
        self.rates.append(rates)
        bounds.append(self._elapsed)
        self.departs.append(np.flatnonzero(departing).tolist())
        active &= ~departing
        if self._counters is not None:
            self._counters.plan_rounds += 1
        return True

    def depart_offset(self, segment: int) -> Optional[float]:
        """Offset of segment ``segment``'s departure boundary (computing
        rounds up to it), or ``None`` when the cascade has fewer
        segments."""
        bounds = self.bounds
        while len(bounds) <= segment + 1:
            if not self._extend():
                return None
        return bounds[segment + 1]

    def _segment(self, offset: float) -> int:
        bounds = self.bounds
        # Extend until a computed boundary lies past ``offset``: later
        # boundaries cannot then change which segment contains it.
        while bounds[-1] <= offset and self._extend():
            pass
        k = bisect_right(bounds, offset) - 1
        last = len(self.departs) - 1
        if k < 0:
            return 0
        if k > last:
            return last
        return k

    def remaining_at(self, pos: int, now: float) -> float:
        offset = now - self.base
        k = self._segment(offset)
        remaining = (
            self.init_remaining[pos]
            - self._cum[k][pos]
            - self.rates[k][pos] * (offset - self.bounds[k])
        )
        return float(remaining) if remaining > 0.0 else 0.0

    def rate_at(self, pos: int, now: float) -> float:
        return float(self.rates[self._segment(now - self.base)][pos])

    def initial_rate(self, pos: int) -> float:
        return float(self.rates[0][pos])


# ----------------------------------------------------------------------
# Schedule builders
# ----------------------------------------------------------------------
def _uniform_schedule(
    sorted_remaining: np.ndarray, c_star: float, cap: float
) -> Tuple[np.ndarray, np.ndarray, List[List[int]]]:
    """Closed-form cascade over size-sorted remaining bytes."""
    count = len(sorted_remaining)
    gaps = np.diff(sorted_remaining, prepend=0.0)
    alive = count - np.arange(count)
    stage_rates = np.minimum(c_star / alive, cap)
    ends = np.cumsum(gaps / stage_rates)
    # Group stages whose departure instants coincide (within the tie
    # window) into single segments.
    breaks = np.flatnonzero(np.diff(ends) > _TIE * np.maximum(1.0, ends[1:]))
    starts = np.concatenate(([0], breaks + 1))
    stops = np.concatenate((breaks, [count - 1]))
    bounds = np.concatenate(([0.0], ends[stops]))
    departs = [
        list(range(start, stop + 1))
        for start, stop in zip(starts.tolist(), stops.tolist())
    ]
    return bounds, stage_rates[starts], departs


def build_plan(
    flow_ids: Sequence[int],
    remaining: Sequence[float],
    routes: Mapping[int, Tuple[str, ...]],
    capacities: Mapping[str, float],
    base: float,
    weights: Optional[Mapping[int, float]] = None,
    counters: Optional[FabricPerfCounters] = None,
) -> CascadePlan:
    """Plan one component's departure schedule.

    ``flow_ids`` must be sorted (determinism); ``routes``/``capacities``
    are the engine's solver inputs for exactly these flows — shared link
    names plus the per-flow virtual ``cap:<fid>`` WAN-cap links.  The
    returned plan's ``flow_ids`` may be a reordering of the input.
    ``weights`` (flow id -> weighted-fair-share weight, absent flows
    weigh 1.0) selects the weighted fill; ``None`` keeps the exact
    unweighted path.  ``counters`` (if given) counts every fill round a
    general plan computes, now or later, in ``plan_rounds``.
    """
    init_remaining = np.asarray(remaining, dtype=float)

    def split(fid: int) -> Tuple[Tuple[str, ...], float]:
        route = routes[fid]
        if route and route[-1] == f"cap:{fid}":
            return route[:-1], capacities[route[-1]]
        return route, np.inf

    shared0, cap0 = split(flow_ids[0])
    uniform = bool(shared0) and all(
        split(fid) == (shared0, cap0) for fid in flow_ids[1:]
    )
    if uniform and weights:
        # The closed form assumes every alive member runs at the same
        # rate, which holds only when all weights are equal (weighted
        # max-min with equal weights reduces to the unweighted
        # allocation — the shared fair level just rescales).
        weight0 = weights.get(flow_ids[0], 1.0)
        uniform = all(
            weights.get(fid, 1.0) == weight0 for fid in flow_ids[1:]
        )
    if uniform:
        multiplicity: Dict[str, int] = {}
        for name in shared0:
            multiplicity[name] = multiplicity.get(name, 0) + 1
        c_star = min(
            capacities[name] / count for name, count in multiplicity.items()
        )
        # Reorder members into departure (size) order so every
        # departure batch is a contiguous position range.
        order = np.argsort(init_remaining, kind="stable")
        sorted_remaining = init_remaining[order]
        members = [flow_ids[index] for index in order.tolist()]
        bounds, seg_rates, departs = _uniform_schedule(
            sorted_remaining, c_star, cap0
        )
        return UniformPlan(
            members, base, sorted_remaining, bounds, seg_rates, departs
        )
    interned: Dict[Hashable, int] = {}
    link_caps: List[float] = []
    index_routes: List[np.ndarray] = []
    for fid in flow_ids:
        route = routes[fid]
        row = np.empty(len(route), dtype=np.intp)
        for position, name in enumerate(route):
            index = interned.get(name)
            if index is None:
                index = len(interned)
                interned[name] = index
                link_caps.append(capacities[name])
            row[position] = index
        index_routes.append(row)
    weight_array: Optional[np.ndarray] = None
    if weights:
        weight_array = np.asarray(
            [float(weights.get(fid, 1.0)) for fid in flow_ids]
        )
        if np.any(weight_array <= 0):
            raise ValueError("flow weights must be > 0")
    return GeneralPlan(
        list(flow_ids),
        base,
        init_remaining,
        index_routes,
        np.asarray(link_caps),
        weight_array,
        counters,
    )
