"""Tests for the immutable stream tuple."""

from __future__ import annotations

from dataclasses import fields, replace

import pytest

from repro.streams.tuples import StreamTuple


def make(values=None, size=64.0):
    return StreamTuple(
        stream_id="s",
        seq=0,
        created_at=1.0,
        values=values or {"a": 1.0, "b": 2.0},
        size=size,
    )


def test_value_accessor():
    tup = make()
    assert tup.value("a") == 1.0


def test_value_missing_raises_with_context():
    tup = make()
    with pytest.raises(KeyError, match="no attribute 'z'"):
        tup.value("z")


def test_project_keeps_subset_and_shrinks():
    tup = make(size=80.0)
    projected = tup.project(["a"])
    assert projected.values == {"a": 1.0}
    assert projected.size == pytest.approx(40.0)
    # original untouched
    assert tup.values == {"a": 1.0, "b": 2.0}


def test_project_with_explicit_size():
    tup = make()
    projected = tup.project(["b"], size=8.0)
    assert projected.size == 8.0


def test_with_values_merges():
    tup = make()
    updated = tup.with_values(c=3.0, a=9.0)
    assert updated.values == {"a": 9.0, "b": 2.0, "c": 3.0}
    assert tup.values["a"] == 1.0


def test_tuples_are_frozen():
    tup = make()
    with pytest.raises(AttributeError):
        tup.seq = 5  # type: ignore[misc]


# ----------------------------------------------------------------------
# The copy helpers build positionally; ``dataclasses.replace`` is the spec
# ----------------------------------------------------------------------
def same_fields(got: StreamTuple, expected: StreamTuple) -> bool:
    """Field for field, by ``repr``: tells ``1`` from ``1.0``."""
    assert type(got) is StreamTuple
    return all(
        repr(getattr(got, f.name)) == repr(getattr(expected, f.name))
        for f in fields(StreamTuple)
    )


def test_relabel_is_replace_of_the_stream_id():
    tup = make(size=80.0)
    assert same_fields(tup.relabel("other"), replace(tup, stream_id="other"))
    assert tup.relabel("other").values is tup.values  # shared, as before


def test_with_values_is_replace_of_the_merged_values():
    tup = make(size=80.0)
    merged = {"a": 9.0, "b": 2.0, "c": 3.0}
    assert same_fields(
        tup.with_values(c=3.0, a=9.0), replace(tup, values=merged)
    )
    assert same_fields(tup.with_values(), replace(tup, values=dict(tup.values)))


@pytest.mark.parametrize(
    "names, size, expected_size",
    [
        (["a"], None, 40.0),  # shrinks by the share of attributes kept
        (["b", "a"], None, 80.0),
        ([], None, 0.0),
        (["a"], 8.0, 8.0),  # an explicit size wins
        (["a"], 0.0, 0.0),  # ... also when it is falsy
    ],
)
def test_project_is_replace_of_values_and_size(names, size, expected_size):
    tup = make(size=80.0)
    kept = {name: tup.values[name] for name in names}
    assert same_fields(
        tup.project(names, size=size),
        replace(tup, values=kept, size=expected_size),
    )


def test_project_of_an_attribute_free_tuple_divides_by_one():
    tup = StreamTuple("s", 0, 1.0, {}, 64.0)
    assert same_fields(tup.project([]), replace(tup, values={}, size=0.0))
