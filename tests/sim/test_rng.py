"""Tests for deterministic RNG plumbing."""

import numpy as np
import pytest

from repro.sim.rng import draw_ints, make_rng


def test_make_rng_from_seed_is_deterministic():
    a = make_rng(42)
    b = make_rng(42)
    assert a.integers(0, 1 << 30) == b.integers(0, 1 << 30)


def test_make_rng_passes_generator_through():
    gen = np.random.default_rng(7)
    assert make_rng(gen) is gen


def test_make_rng_none_gives_generator():
    assert isinstance(make_rng(None), np.random.Generator)


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
