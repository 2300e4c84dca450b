"""Tests for attribute value models and stream schemas."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.streams.schema import Attribute, StreamSchema, _zipf_table


# ----------------------------------------------------------------------
# Attribute
# ----------------------------------------------------------------------
def test_uniform_selectivity_full_domain():
    attr = Attribute("x", 0.0, 100.0)
    assert attr.selectivity(0.0, 100.0) == pytest.approx(1.0)


def test_uniform_selectivity_half_domain():
    attr = Attribute("x", 0.0, 100.0)
    assert attr.selectivity(0.0, 50.0) == pytest.approx(0.5)


def test_uniform_selectivity_outside_domain_is_zero():
    attr = Attribute("x", 0.0, 100.0)
    assert attr.selectivity(200.0, 300.0) == 0.0


def test_uniform_selectivity_clips_to_domain():
    attr = Attribute("x", 0.0, 100.0)
    assert attr.selectivity(-50.0, 50.0) == pytest.approx(0.5)


def test_degenerate_domain_selectivity():
    attr = Attribute("x", 5.0, 5.0)
    assert attr.selectivity(0.0, 10.0) == pytest.approx(1.0)


def test_zipf_selectivity_skews_to_low_values():
    attr = Attribute("sym", 0, 99, "zipf", 1.2)
    low = attr.selectivity(0, 9)
    high = attr.selectivity(90, 99)
    assert low > high
    assert attr.selectivity(0, 99) == pytest.approx(1.0)


def test_zipf_partial_interval():
    attr = Attribute("sym", 0, 9, "zipf", 1.0)
    total = sum(1.0 / (r + 1) for r in range(10))
    assert attr.selectivity(0, 0) == pytest.approx(1.0 / total)


def test_invalid_bounds_raise():
    with pytest.raises(ValueError):
        Attribute("x", 10.0, 0.0)


def test_unknown_distribution_raises():
    with pytest.raises(ValueError):
        Attribute("x", 0.0, 1.0, "gaussian")


def test_uniform_draw_within_domain():
    attr = Attribute("x", 10.0, 20.0)
    rng = random.Random(1)
    for __ in range(100):
        assert 10.0 <= attr.draw(rng) <= 20.0


def test_zipf_draw_within_domain_and_integral():
    attr = Attribute("sym", 5, 14, "zipf", 1.0)
    rng = random.Random(2)
    for __ in range(100):
        value = attr.draw(rng)
        assert 5 <= value <= 14
        assert value == int(value)


def test_zipf_draw_matches_selectivity_roughly():
    attr = Attribute("sym", 0, 49, "zipf", 1.1)
    rng = random.Random(3)
    hits = sum(1 for __ in range(3000) if attr.draw(rng) <= 4)
    expected = attr.selectivity(0, 4)
    assert abs(hits / 3000 - expected) < 0.05


@pytest.mark.parametrize("n", [1, 2, 10, 500, 4096])
@pytest.mark.parametrize("zipf_s", [1.0, 1.1, 1.2])
def test_zipf_draw_is_the_weighted_choice_it_replaces(n, zipf_s):
    """A Zipf draw returns what ``Random.choices`` over the rank weights
    returns and leaves the RNG in the same state, so every recorded
    source trace is bit-identical to one drawn by ``choices``."""
    attr = Attribute("sym", 7, 7 + n - 1, "zipf", zipf_s)
    weights = _zipf_table(n, zipf_s)[0]
    for seed in (0, 1, 91, 2**31 - 1):
        rng, twin = random.Random(seed), random.Random(seed)
        for __ in range(200):
            expected = 7 + twin.choices(range(n), weights=weights)[0]
            assert attr.draw(rng) == expected
        assert rng.getstate() == twin.getstate()


def test_uniform_draw_is_random_uniform():
    """A uniform draw is ``rng.uniform(lo, hi)`` to the bit."""
    attr = Attribute("price", 1.0, 1000.0)
    rng, twin = random.Random(5), random.Random(5)
    for __ in range(500):
        assert attr.draw(rng) == twin.uniform(1.0, 1000.0)
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize(
    "attr",
    [Attribute("price", 1.0, 1000.0), Attribute("sym", 0, 499, "zipf", 1.1)],
    ids=["uniform", "zipf"],
)
def test_bound_sampler_draws_what_draw_draws(attr):
    """A sampler bound once and called repeatedly (what a source does)
    yields the sequence of one-off draws and the same RNG state."""
    rng, bound = random.Random(7), random.Random(7)
    draw = attr.sampler(bound)
    assert [draw() for __ in range(300)] == [attr.draw(rng) for __ in range(300)]
    assert rng.getstate() == bound.getstate()


@given(
    lo=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    width=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    qlo=st.floats(min_value=-2e3, max_value=2e3, allow_nan=False),
    qwidth=st.floats(min_value=0.0, max_value=2e3, allow_nan=False),
)
def test_uniform_selectivity_is_probability(lo, width, qlo, qwidth):
    attr = Attribute("x", lo, lo + width)
    s = attr.selectivity(qlo, qlo + qwidth)
    assert 0.0 <= s <= 1.0 + 1e-9


@given(
    split=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
def test_uniform_selectivity_additive_over_split(split):
    attr = Attribute("x", 0.0, 100.0)
    left = attr.selectivity(0.0, split)
    right = attr.selectivity(split, 100.0)
    assert left + right == pytest.approx(1.0 + attr.selectivity(split, split))


# ----------------------------------------------------------------------
# StreamSchema
# ----------------------------------------------------------------------
def test_schema_bytes_per_second(simple_schema):
    assert simple_schema.bytes_per_second == 64.0 * 50.0


def test_schema_attribute_lookup(simple_schema):
    assert simple_schema.attribute("price").name == "price"
    with pytest.raises(KeyError):
        simple_schema.attribute("ghost")


def test_schema_rejects_duplicate_attributes():
    with pytest.raises(ValueError):
        StreamSchema(
            "s",
            attributes=(Attribute("a", 0, 1), Attribute("a", 0, 1)),
        )


def test_schema_rejects_bad_size_or_rate():
    with pytest.raises(ValueError):
        StreamSchema("s", attributes=(Attribute("a", 0, 1),), tuple_size=0)
    with pytest.raises(ValueError):
        StreamSchema("s", attributes=(Attribute("a", 0, 1),), rate=-1)


def test_attribute_names_order(simple_schema):
    assert simple_schema.attribute_names() == ["price", "symbol"]
