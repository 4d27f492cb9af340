"""Tests for deterministic RNG plumbing."""

import numpy as np
import pytest

from repro.sim.rng import draw_ints, make_rng, spawn_rngs


def test_make_rng_from_seed_is_deterministic():
    a = make_rng(42)
    b = make_rng(42)
    assert a.integers(0, 1 << 30) == b.integers(0, 1 << 30)


def test_make_rng_passes_generator_through():
    gen = np.random.default_rng(7)
    assert make_rng(gen) is gen


def test_make_rng_none_gives_generator():
    assert isinstance(make_rng(None), np.random.Generator)


def test_spawn_rngs_independent_streams():
    streams = spawn_rngs(123, 3)
    assert len(streams) == 3
    draws = [g.integers(0, 1 << 60) for g in streams]
    assert len(set(draws)) == 3  # astronomically unlikely to collide


def test_spawn_rngs_reproducible():
    a = spawn_rngs(5, 2)
    b = spawn_rngs(5, 2)
    for ga, gb in zip(a, b):
        assert ga.integers(0, 1 << 30) == gb.integers(0, 1 << 30)


def test_spawn_rngs_negative_count_rejected():
    with pytest.raises(ValueError):
        spawn_rngs(0, -1)


@pytest.mark.parametrize("high", [7, 160_000, 2**31, 2**40])
@pytest.mark.parametrize("count", [0, 1, 8192, 20_001])
def test_draw_ints_is_the_scalar_stream(high, count):
    scalar, chunked = make_rng(5), make_rng(5)
    expected = [int(scalar.integers(0, high)) for _ in range(count)]
    drawn = list(draw_ints(chunked, high, count))
    assert drawn == expected
    assert all(type(value) is int for value in drawn[:3])
    # The generators stay in step, so later draws are unchanged too.
    assert int(scalar.integers(0, high)) == int(chunked.integers(0, high))
