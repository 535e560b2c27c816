"""Host time rescaled to a reference CPU speed.

The benchmark runs on shared hosts whose CPU speed drifts: a
neighbouring job can slow a whole run by 1.8x for tens of seconds, far
more than any bound the benchmark could honestly set.  ``SpeedClock``
therefore samples the interpreter's current speed with a fixed
pure-Python calibration kernel — at start and then every ``interval``
seconds from a ``SIGALRM`` handler — and reports a window's
duration as the host seconds it would have taken at the reference speed
``REFERENCE_KERNEL_S``:

    normalized = integral over the window of REFERENCE_KERNEL_S / k(t) dt

where ``k(t)`` is the latest kernel time sampled before ``t``.  The time
the sampler itself spends is excluded from every window, raw and
normalized alike.  The kernel touches no simulator state, so sampling
cannot change simulated results.
"""

from __future__ import annotations

import bisect
import gc
import signal
from time import perf_counter
from typing import List, Tuple

# One kernel run on an idle 2-vCPU Intel Xeon VM (CPython 3.11): a
# window measured at that speed reads the same normalized as raw.
REFERENCE_KERNEL_S = 2.6e-4


def _kernel() -> float:
    """Fixed dict, list and float work."""
    table = {}
    items = []
    acc = 0.0
    for i in range(1500):
        key = i % 97
        table[key] = table.get(key, 0.0) + i * 0.5
        items.append(key)
        acc += len(items) * 1e-9
    return acc


def kernel_seconds() -> float:
    """Host seconds of one kernel run.

    One run, not the fastest of several: contention on shared hosts
    comes and goes within milliseconds, and the program pays the
    average, so the sampler must too.  The collector is off meanwhile,
    so the kernel's speed does not depend on the program's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        _kernel()
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class SpeedClock:
    """Samples CPU speed periodically; converts host windows to
    reference-speed seconds."""

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        # Per sample: when the sampler started and ended, and the
        # speed factor (reference / measured kernel time) from then on.
        self._starts: List[float] = []
        self._ends: List[float] = []
        self._factors: List[float] = []
        # Normalized and raw (sampler-excluded) time elapsed at _ends[k].
        self._norm_at: List[float] = []
        self._raw_at: List[float] = []
        self._previous = None
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a signal landed inside an explicit sample
            return
        self._busy = True
        try:
            self._sample()
        finally:
            self._busy = False

    def _sample(self) -> None:
        started = perf_counter()
        measured = kernel_seconds()
        ended = perf_counter()
        if self._starts:
            gap = started - self._ends[-1]
            self._norm_at.append(self._norm_at[-1] + self._factors[-1] * gap)
            self._raw_at.append(self._raw_at[-1] + gap)
        else:
            self._norm_at.append(0.0)
            self._raw_at.append(0.0)
        self._starts.append(started)
        self._ends.append(ended)
        self._factors.append(REFERENCE_KERNEL_S / measured)

    def start(self) -> None:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _at(self, t: float) -> Tuple[float, float]:
        """(normalized, raw) seconds elapsed at host time ``t``."""
        k = bisect.bisect_right(self._starts, t) - 1
        if k < 0:
            return 0.0, 0.0
        if t <= self._ends[k]:  # inside the sampler: excluded time
            return self._norm_at[k], self._raw_at[k]
        gap = t - self._ends[k]
        return self._norm_at[k] + self._factors[k] * gap, self._raw_at[k] + gap

    def window(self, start: float, end: float) -> Tuple[float, float]:
        """(normalized, raw) seconds of host window [start, end]."""
        norm_start, raw_start = self._at(start)
        norm_end, raw_end = self._at(end)
        return norm_end - norm_start, raw_end - raw_start

    @property
    def samples(self) -> int:
        return len(self._starts)
