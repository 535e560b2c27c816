"""Logical size estimation and SizedRecord semantics."""

import enum
from collections import OrderedDict, defaultdict, namedtuple
from typing import Any

import pytest
from hypothesis import example, given, strategies as st

from repro.rdd.size_estimator import SizeEstimator, SizedRecord, natural_size


def test_sized_record_overrides_heuristic():
    record = SizedRecord({"big": "payload"}, natural_size=1e9)
    assert natural_size(record) == 1e9


def test_sized_record_rejects_negative_size():
    with pytest.raises(ValueError):
        SizedRecord(None, natural_size=-1)


@pytest.mark.parametrize("size", [float("nan"), float("inf"), -float("inf")])
def test_sized_record_rejects_non_finite_size(size):
    with pytest.raises(ValueError):
        SizedRecord(None, natural_size=size)


def test_sized_record_accepts_zero_and_integer_sizes():
    assert SizedRecord(None, 0).natural_size == 0.0
    assert SizedRecord(None, 7).natural_size == 7.0


def test_sized_record_equality_and_hash():
    a = SizedRecord("x", 10)
    b = SizedRecord("x", 10)
    c = SizedRecord("x", 20)
    assert a == b
    assert a != c
    assert hash(a) == hash(b)


def test_primitive_sizes_are_positive_and_ordered():
    assert natural_size(1) > 0
    assert natural_size("hello") > natural_size(1)
    assert natural_size("a" * 100) > natural_size("a")
    assert natural_size(b"bytes") > 0
    assert natural_size(None) > 0
    assert natural_size(True) > 0
    assert natural_size(1) == 8.0
    assert natural_size(2 ** 70) == 8.0
    assert natural_size(-0.0) == 8.0
    assert natural_size("hello") == 13.0
    assert natural_size("a") == 9.0
    assert natural_size("a" * 100) == 108.0
    assert natural_size("é") == 9.0
    assert natural_size(b"bytes") == 13.0
    assert natural_size(None) == 8.0
    assert natural_size(True) == 8.0


def test_container_sizes_sum_members():
    assert natural_size((1, 2)) > natural_size(1) + natural_size(2)
    assert natural_size([1, 2, 3]) > natural_size([1])
    assert natural_size({"k": 1}) > natural_size({})
    assert natural_size(()) == 16.0
    assert natural_size((1, 2)) == 32.0
    assert natural_size(("ab", SizedRecord(1, 3.5))) == 29.5
    assert natural_size(((1, "c"), SizedRecord(0, 2.25))) == 51.25
    assert natural_size((1, 2, 3)) == 40.0
    assert natural_size([1, 2, 3]) == 40.0
    assert natural_size([1]) == 24.0
    assert natural_size({1, 2}) == 32.0
    assert natural_size(frozenset()) == 16.0
    assert natural_size({"k": 1}) == 33.0
    assert natural_size({}) == 16.0


def test_unknown_object_gets_base_size():
    class Opaque:
        pass

    assert natural_size(Opaque()) > 0
    assert natural_size(Opaque()) == 16.0


def test_estimator_scales_sizes():
    plain = SizeEstimator(scale_factor=1.0)
    scaled = SizeEstimator(scale_factor=1000.0)
    records = [(f"w{i}", i) for i in range(10)]
    assert scaled.estimate(records) == pytest.approx(
        1000.0 * plain.estimate(records)
    )


def test_estimator_rejects_bad_scale():
    with pytest.raises(ValueError):
        SizeEstimator(scale_factor=0)


def test_estimate_with_count():
    estimator = SizeEstimator()
    size, count = estimator.estimate_with_count([1, 2, 3])
    assert count == 3
    assert size == pytest.approx(estimator.estimate([1, 2, 3]))


@given(st.lists(st.one_of(st.integers(), st.text(max_size=20))))
def test_estimate_is_additive(records):
    estimator = SizeEstimator()
    total = estimator.estimate(records)
    parts = sum(estimator.estimate([r]) for r in records)
    assert total == pytest.approx(parts)


@given(st.lists(st.integers(), max_size=50))
def test_estimate_nonnegative(records):
    assert SizeEstimator().estimate(records) >= 0


# ---------------------------------------------------------------------------
# Oracle: the isinstance-chain sizing that the type-dispatch table replaced.
# The table must reproduce it bit for bit, since sizes become flow sizes.
# ---------------------------------------------------------------------------

_NUMBER_SIZE = 8.0
_BASE_OBJECT_SIZE = 16.0


def reference_natural_size(record: Any) -> float:
    """Estimate the serialized size of one record in natural bytes."""
    if isinstance(record, SizedRecord):
        return record.natural_size
    if isinstance(record, bool) or record is None:
        return _NUMBER_SIZE
    if isinstance(record, (int, float)):
        return _NUMBER_SIZE
    if isinstance(record, str):
        return float(len(record)) + _NUMBER_SIZE
    if isinstance(record, bytes):
        return float(len(record)) + _NUMBER_SIZE
    if isinstance(record, tuple):
        return _BASE_OBJECT_SIZE + sum(reference_natural_size(item) for item in record)
    if isinstance(record, (list, set, frozenset)):
        return _BASE_OBJECT_SIZE + sum(reference_natural_size(item) for item in record)
    if isinstance(record, dict):
        return _BASE_OBJECT_SIZE + sum(
            reference_natural_size(key) + reference_natural_size(value)
            for key, value in record.items()
        )
    return _BASE_OBJECT_SIZE


class Colour(enum.IntEnum):
    RED = 1
    GREEN = 2 ** 62


class Word(str):
    pass


class Pair(tuple):
    pass


class Bag(dict):
    pass


Point = namedtuple("Point", "x y")
Triple = namedtuple("Triple", "a b c")


class Opaque:
    pass


# Sizes chosen so that the order and form of float additions shows in
# the last bits: tenths, mixed magnitudes, zeros of both signs and a
# subnormal.
fractional_sizes = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1e-3, 1e16, 3.5, 5e-324]),
    st.floats(min_value=0.0, max_value=1e18, allow_nan=False,
              allow_infinity=False),
)

hashable_leaves = st.one_of(
    st.integers(),
    st.integers(min_value=2 ** 61, max_value=2 ** 80),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
    st.just(-0.0),
    st.text(max_size=12),
    st.text(alphabet="éßЖ中😀", max_size=6),
    st.binary(max_size=12),
    st.sampled_from(list(Colour)),
    st.text(max_size=6).map(Word),
    st.builds(SizedRecord, st.integers(), fractional_sizes),
)

leaves = st.one_of(
    hashable_leaves,
    st.builds(Opaque),
    st.builds(SizedRecord, st.text(max_size=4), fractional_sizes),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.tuples(children, children),
        st.lists(children, max_size=5),
        st.sets(hashable_leaves, max_size=5),
        st.frozensets(hashable_leaves, max_size=5),
        st.dictionaries(hashable_leaves, children, max_size=4),
        st.builds(Point, children, children),
        st.builds(Triple, children, children, children),
        st.lists(children, max_size=3).map(Pair),
        st.dictionaries(hashable_leaves, children, max_size=3).map(Bag),
        st.dictionaries(hashable_leaves, children, max_size=3).map(OrderedDict),
        st.dictionaries(hashable_leaves, children, max_size=3).map(
            lambda d: defaultdict(int, d)
        ),
    )


records = st.recursive(leaves, _containers, max_leaves=12)

# Ten 0.1s: a plain left-to-right float sum gives 0.9999999999999999,
# the compensated sum() of Python 3.12+ gives 1.0.
_TENTHS = [SizedRecord(None, 0.1)] * 10


@given(records)
@example(tuple(_TENTHS))
@example(_TENTHS)
@example({i: _TENTHS[i] for i in range(10)})
@example(("ab", SizedRecord(1, 0.1)))
@example(((Colour.GREEN, Word("x")), SizedRecord(0, 0.3)))
@example(Point(SizedRecord(0, 0.1), -0.0))
def test_natural_size_matches_reference_bit_for_bit(record):
    assert natural_size(record).hex() == reference_natural_size(record).hex()


@given(st.lists(records, max_size=12), st.sampled_from([1.0, 1000.0, 0.1]))
@example(_TENTHS, 1.0)
def test_estimate_matches_reference_sum_bit_for_bit(batch, scale):
    expected = sum(reference_natural_size(r) for r in batch) * scale
    assert SizeEstimator(scale).estimate(batch).hex() == expected.hex()


@given(st.lists(records, max_size=12), st.sampled_from([1.0, 1000.0, 0.1]))
@example(_TENTHS, 1.0)
def test_estimate_with_count_matches_reference_loop_bit_for_bit(batch, scale):
    total = 0.0
    count = 0
    for record in batch:
        total += reference_natural_size(record)
        count += 1
    size, got_count = SizeEstimator(scale).estimate_with_count(iter(batch))
    assert got_count == count
    assert size.hex() == (total * scale).hex()
