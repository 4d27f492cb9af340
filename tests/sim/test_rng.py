"""Tests for deterministic RNG plumbing."""

import copy

import numpy as np
import pytest

from repro.sim.rng import _WORD_CHUNK, BoundedDraws, draw_ints, make_rng


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


# 2**31 + 5 and 3e9 reject about half and a third of their words; 2**32
# maps each word to itself; 1 takes none.
_BOUNDS = [1, 2, 3, 1000, 65537, 2**31 + 5, 3_000_000_000, 2**32 - 1, 2**32]
_REJECTING = (2**31 + 5, 3_000_000_000)


class _CountingRng:
    """A generator that counts the chunks a :class:`BoundedDraws` takes."""

    def __init__(self, seed: int):
        self.rng = make_rng(seed)
        self.chunks = 0

    def integers(self, *args, **kwargs):
        self.chunks += 1
        return self.rng.integers(*args, **kwargs)


def _words_taken(source: BoundedDraws) -> int:
    return max(0, source.rng.chunks - 1) * _WORD_CHUNK + source._next


@pytest.mark.parametrize("n", _BOUNDS)
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_bounded_draws_are_the_scalar_stream(n, seed):
    count = 2 * _WORD_CHUNK + 300
    scalar, source = make_rng(seed), BoundedDraws(_CountingRng(seed))
    expected = [int(scalar.integers(0, n)) for _ in range(count)]
    drawn = [source.below(n) for _ in range(count)]
    assert drawn == expected
    assert all(type(value) is int for value in drawn[:3])
    if n == 1:
        assert source.rng.chunks == 0  # numpy takes no word for range(1)
        return
    assert source.rng.chunks >= 3  # more than one refill
    if n in _REJECTING:
        assert _words_taken(source) > count + count // 5
    # Still word for word in step with the scalar generator.
    for _ in range(5):
        assert source.below(2**32) == int(scalar.integers(0, 2**32, dtype=np.uint32))


@pytest.mark.parametrize("seed", [0, 3])
def test_bounded_draws_follow_a_bound_that_changes_every_draw(seed):
    bounds = make_rng(99).integers(1, 5_000, size=3 * _WORD_CHUNK).tolist()
    bounds[::7] = [_BOUNDS[i % len(_BOUNDS)] for i in range(len(bounds[::7]))]
    scalar, source = make_rng(seed), BoundedDraws(make_rng(seed))
    assert [source.below(n) for n in bounds] == [int(scalar.integers(0, n)) for n in bounds]


def test_a_deep_copy_mid_stream_replays_the_original():
    source = BoundedDraws(make_rng(11))
    for n in range(1, _WORD_CHUNK + 200):
        source.below(n)
    clone = copy.deepcopy(source)
    assert clone._words is source._words  # shared, never mutated
    bounds = [3_000_000_000, 7, 2**31 + 5, 1] * (_WORD_CHUNK // 2)
    replayed = [clone.below(n) for n in bounds]  # the clone refills first
    assert [source.below(n) for n in bounds] == replayed
    assert clone.rng is not source.rng


@pytest.mark.parametrize("n", [0, -3, 2**32 + 1])
def test_bounded_draws_refuse_a_bound_outside_one_to_two_to_the_32(n):
    source = BoundedDraws(make_rng(0))
    with pytest.raises(ValueError, match="outside"):
        source.below(n)
