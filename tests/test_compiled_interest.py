"""Tests for the codegen'd interest predicate kernels.

The compiled kernel must be indistinguishable from the interpreted
``StreamInterest.matches_values`` on every input — multi-interval
constraints, empty sets, missing or ``None`` attributes, NaN — and the
cache must hand the same function back for shape-equal interests.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.interest.compiled import (
    cache_info,
    cache_size,
    clear_cache,
    compile_interest,
    compile_selector,
    interest_key,
)
from repro.interest.predicates import Interval, IntervalSet, StreamInterest
from repro.streams.tuples import StreamTuple

finite = st.floats(
    min_value=-50.0, max_value=150.0, allow_nan=False, allow_infinity=False
)


@st.composite
def interval_sets(draw):
    """Random (possibly empty, possibly multi-interval) IntervalSets."""
    bounds = draw(st.lists(finite, min_size=0, max_size=8))
    intervals = [
        Interval(min(lo, hi), max(lo, hi))
        for lo, hi in zip(bounds[::2], bounds[1::2])
    ]
    return IntervalSet(intervals)


@st.composite
def interests(draw):
    """Random interests over a small attribute vocabulary."""
    names = draw(
        st.lists(
            st.sampled_from(["price", "volume", "sym", "x"]),
            min_size=0,
            max_size=4,
            unique=True,
        )
    )
    return StreamInterest(
        "s", {name: draw(interval_sets()) for name in names}
    )


@st.composite
def value_dicts(draw):
    """Random tuple value dicts, sometimes missing constrained names or
    carrying ``None``, NaN or an infinity."""
    names = draw(
        st.lists(
            st.sampled_from(["price", "volume", "sym", "x", "extra"]),
            min_size=0,
            max_size=5,
            unique=True,
        )
    )
    odd = st.sampled_from([None, float("nan"), float("inf"), float("-inf")])
    return {name: draw(finite | odd) for name in names}


@settings(max_examples=200, deadline=None)
@given(interest=interests(), values=value_dicts())
def test_compiled_matches_interpreted(interest, values):
    """The codegen'd kernel equals matches_values on arbitrary input."""
    match = compile_interest(interest)
    assert match(values) == interest.matches_values(values)


@settings(max_examples=100, deadline=None)
@given(ivs=interval_sets(), value=finite)
def test_interval_set_bisect_contains(ivs, value):
    """Bisect membership equals the definitional linear scan."""
    expected = any(iv.lo <= value <= iv.hi for iv in ivs.intervals)
    assert ivs.contains(value) == expected
    assert (value in ivs) == expected


@settings(max_examples=50, deadline=None)
@given(interest=interests(), values=st.lists(value_dicts(), max_size=10))
def test_batch_filter_matches_per_tuple(interest, values):
    """A one-interest selector keeps exactly the per-tuple survivors."""
    batch = [
        StreamTuple("s", seq, 0.0, vals, 64.0)
        for seq, vals in enumerate(values)
    ]
    (kept,) = compile_selector([interest])(batch)
    expected = [t for t in batch if interest.matches_values(t.values)]
    assert kept == expected


def test_cache_returns_same_kernel_for_equal_shape():
    """Shape-equal interests share one compiled function."""
    clear_cache()
    a = StreamInterest.on("s", price=(10.0, 50.0))
    b = StreamInterest.on("s", price=(10.0, 50.0))
    assert interest_key(a) == interest_key(b)
    assert compile_interest(a) is compile_interest(b)
    assert cache_size() == 1
    c = StreamInterest.on("s", price=(10.0, 60.0))
    assert compile_interest(c) is not compile_interest(a)
    assert cache_size() == 2


def test_compiled_kernel_exposes_source():
    """Kernels carry their generated source for debugging/inspection."""
    match = compile_interest(StreamInterest.on("s", price=(10.0, 50.0)))
    assert "def _match" in match.__source__
    assert match({"price": 20.0})
    assert not match({"price": 9.0})


def test_empty_constraint_rejects_present_attribute():
    """An empty IntervalSet matches only when the attribute is absent."""
    interest = StreamInterest("s", {"price": IntervalSet()})
    match = compile_interest(interest)
    assert match({}) == interest.matches_values({})
    assert match({"price": 1.0}) == interest.matches_values({"price": 1.0})
    assert not match({"price": 1.0})


def test_none_valued_attribute_counts_as_absent():
    """``None`` passes every constraint, as in ``matches_values`` —
    including an empty one; NaN passes none, multi-interval included."""
    two = IntervalSet([Interval(1.0, 2.0), Interval(4.0, 5.0)])
    for ivs in (IntervalSet.single(1.0, 2.0), IntervalSet(), two):
        interest = StreamInterest("s", {"p": ivs})
        match = compile_interest(interest)
        assert interest.matches_values({"p": None})
        assert match({"p": None})
        assert not interest.matches_values({"p": float("nan")})
        assert not match({"p": float("nan")})


def test_cache_info_counts_hits_misses():
    """cache_info() tracks hits and misses across compilations."""
    clear_cache()
    a = StreamInterest.on("s", price=(1.0, 2.0))
    compile_interest(a)
    compile_interest(a)
    compile_interest(StreamInterest.on("s", price=(3.0, 4.0)))
    info = cache_info()
    assert (info.hits, info.misses, info.evictions) == (1, 2, 0)
    assert info.currsize == 2
    clear_cache()
    info = cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_cache_evicts_least_recently_used(monkeypatch):
    """Past the limit, the LRU kernel is evicted — not the hottest."""
    import repro.interest.compiled as compiled

    clear_cache()
    monkeypatch.setattr(compiled, "_CACHE_LIMIT", 2)
    hot = StreamInterest.on("s", price=(0.0, 1.0))
    cold = StreamInterest.on("s", price=(2.0, 3.0))
    hot_fn = compile_interest(hot)
    compile_interest(cold)
    compile_interest(hot)  # refresh hot -> cold becomes LRU
    compile_interest(StreamInterest.on("s", price=(4.0, 5.0)))
    assert cache_info().evictions == 1
    assert cache_size() == 2
    assert interest_key(hot) in compiled._CACHE
    assert interest_key(cold) not in compiled._CACHE
    assert compile_interest(hot) is hot_fn
    clear_cache()


def test_cross_query_kernel_sharing():
    """Distinct queries with equal interests share one compiled kernel
    — the cache key is the interest fingerprint, not the query."""
    from repro.query.spec import QuerySpec
    from repro.streams.catalog import stock_catalog

    clear_cache()
    catalog = stock_catalog(exchanges=1, rate=10.0)
    specs = [
        QuerySpec(
            query_id=f"q{i}",
            interests=(
                StreamInterest.on(
                    "exchange-0.trades", price=(100.0, 600.0)
                ),
            ),
        )
        for i in range(3)
    ]
    for spec in specs:
        spec.build_plan(catalog)
    info = cache_info()
    assert info.misses <= 2  # query filter + at most one routing filter
    assert info.hits >= len(specs) - 1
    assert cache_size() == info.misses
    clear_cache()
