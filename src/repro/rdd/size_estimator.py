"""Logical size estimation for records.

The simulation runs with record counts scaled down by ``scale_factor``
relative to the paper's datasets, but charges network/disk/CPU time for
*logical* bytes at paper scale.  Every record therefore has a logical
size: its natural serialized size heuristic multiplied by the scale
factor.  Workload generators may also attach an explicit size by using
:class:`SizedRecord`.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, Tuple

_INF = float("inf")


class SizedRecord:
    """A record with an explicit natural size in bytes.

    Wraps a payload whose cost is not well captured by the generic
    heuristic — e.g. a "document" record standing for many raw text lines.
    """

    __slots__ = ("payload", "natural_size")

    def __init__(self, payload: Any, natural_size: float) -> None:
        # One chained comparison: NaN and +inf fail it (``nan < 0`` alone
        # is False), and this runs once per record the workloads build.
        if not 0 <= natural_size < _INF:
            raise ValueError("natural_size must be finite and >= 0")
        self.payload = payload
        self.natural_size = float(natural_size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SizedRecord({self.payload!r}, {self.natural_size})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SizedRecord)
            and self.payload == other.payload
            and self.natural_size == other.natural_size
        )

    def __hash__(self) -> int:
        return hash((self.payload, self.natural_size))


# Natural serialized-size heuristics, roughly matching Java object sizes.
_NUMBER_SIZE = 8.0
_BASE_OBJECT_SIZE = 16.0


# Sizing dispatches on the record's exact type through ``_SIZERS``
# (DESIGN.md §7); subclasses and unknown types resolve through the same
# table.  A ``sum()`` stays a ``sum()``: Python 3.12+ compensates float
# ``sum()``, so swapping it for a loop (or back) changes flow sizes on one
# interpreter or the other.
def natural_size(record: Any) -> float:
    """Estimate the serialized size of one record in natural bytes."""
    kind = type(record)
    if kind is tuple and len(record) == 2:
        # The dominant record shape, a flat (key, value) pair, sized in
        # place.  For two elements ``sum((a, b)) == a + b`` on every
        # CPython version.
        key, value = record
        kind = type(key)
        if kind is str:
            key_size = float(len(key)) + _NUMBER_SIZE
        elif kind is int:
            key_size = _NUMBER_SIZE
        elif kind is SizedRecord:
            key_size = key.natural_size
        else:
            key_size = natural_size(key)
        kind = type(value)
        if kind is SizedRecord:
            value_size = value.natural_size
        elif kind is int:
            value_size = _NUMBER_SIZE
        elif kind is str:
            value_size = float(len(value)) + _NUMBER_SIZE
        else:
            value_size = natural_size(value)
        return _BASE_OBJECT_SIZE + (key_size + value_size)
    sizer = _SIZERS.get(kind)
    if sizer is None:
        sizer = _resolve_sizer(kind)
    return sizer(record)


def _size_number(record: Any) -> float:
    return _NUMBER_SIZE


def _size_text(record: Any) -> float:
    return float(len(record)) + _NUMBER_SIZE


def _size_collection(record: Any) -> float:
    return _BASE_OBJECT_SIZE + sum(map(natural_size, record))


def _size_dict(record: dict) -> float:
    return _BASE_OBJECT_SIZE + sum(
        natural_size(key) + natural_size(value) for key, value in record.items()
    )


def _size_object(record: Any) -> float:
    return _BASE_OBJECT_SIZE


_SIZERS: Dict[type, Callable[[Any], float]] = {
    SizedRecord: attrgetter("natural_size"),
    bool: _size_number,
    int: _size_number,
    float: _size_number,
    type(None): _size_number,
    str: _size_text,
    bytes: _size_text,
    tuple: _size_collection,
    list: _size_collection,
    set: _size_collection,
    frozenset: _size_collection,
    dict: _size_dict,
}


def _resolve_sizer(kind: type) -> Callable[[Any], float]:
    """Find and cache the sizer for a type outside the table.

    ``_SIZERS`` lists its base types in rule order, so the first base that
    ``kind`` derives from picks the rule: a namedtuple sizes as a tuple,
    an ``IntEnum`` as an int, an ``OrderedDict`` as a dict, and anything
    else as a plain object.  Cached entries land after the base types and
    hold what the scan of the bases gives, so they never change what a
    later lookup resolves to.
    """
    for base, sizer in _SIZERS.items():
        if issubclass(kind, base):
            break
    else:
        sizer = _size_object
    _SIZERS[kind] = sizer
    return sizer


class SizeEstimator:
    """Converts records to logical (paper-scale) bytes."""

    def __init__(self, scale_factor: float = 1.0) -> None:
        if scale_factor <= 0:
            raise ValueError("scale_factor must be positive")
        self.scale_factor = float(scale_factor)

    def record_size(self, record: Any) -> float:
        return natural_size(record) * self.scale_factor

    def estimate(self, records: Iterable[Any]) -> float:
        return sum(map(natural_size, records)) * self.scale_factor

    def estimate_with_count(self, records: Iterable[Any]) -> Tuple[float, int]:
        total = 0.0
        count = 0
        for record in records:
            total += natural_size(record)
            count += 1
        return total * self.scale_factor, count
