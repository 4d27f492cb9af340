"""Tests for deterministic RNG plumbing."""

import copy

import numpy as np
import pytest

from repro.sim.rng import _WORD_CHUNK, Draws, draw_ints, make_rng


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


def _mixed_script(n: int, count: int) -> list[tuple[str, int, int]]:
    """``count`` draws, each a ``random()``, a ``below(n)`` or an offset
    ``integers(lo, lo + n)``, in a seeded order that runs of each kind break up."""
    picks = make_rng(99).integers(0, 3, size=count).tolist()
    return [(("random", "below", "offset")[k], n, 7 + i % 50) for i, k in enumerate(picks)]


def _scalar(rng: np.random.Generator, script) -> list:
    out = []
    for kind, n, lo in script:
        if kind == "random":
            out.append(rng.random())
        else:
            lo = lo if kind == "offset" else 0
            out.append(int(rng.integers(lo, lo + n)))
    return out


def _served(draws: Draws, script) -> list:
    out = []
    for kind, n, lo in script:
        if kind == "random":
            out.append(draws.random())
        elif kind == "below":
            out.append(draws.below(n))
        else:
            out.append(lo + draws.below(n))
    return out


def _refills(draws: Draws, script) -> tuple[list, int]:
    """``_served``, and the number of chunks of words it took."""
    out, refills, words = [], 0, draws._words
    for step in script:
        out += _served(draws, [step])
        if draws._words is not words:
            refills, words = refills + 1, draws._words
    return out, refills


@pytest.mark.parametrize("n", _BOUNDS)
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_bounded_draws_are_the_scalar_stream(n, seed):
    """below(n), lo + below(n) and random(), interleaved, are the scalar calls."""
    script = _mixed_script(n, 4 * _WORD_CHUNK)
    scalar, source = make_rng(seed), make_rng(seed)
    draws = Draws(source)
    served, refills = _refills(draws, script)
    assert served == _scalar(scalar, script)
    assert refills >= 2  # across a refill
    kinds = [kind for kind, _, _ in script]
    assert {type(v) for v, k in zip(served, kinds) if k == "random"} == {float}
    assert {type(v) for v, k in zip(served, kinds) if k != "random"} == {int}
    # Still in step with the scalar generator, draw for draw.
    tail = _mixed_script(2**32, 9)
    assert _served(draws, tail) == _scalar(scalar, tail)
    draws.settle()
    assert source.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("seed", [0, 3])
def test_bounded_draws_follow_a_bound_that_changes_every_draw(seed):
    bounds = make_rng(99).integers(1, 5_000, size=3 * _WORD_CHUNK).tolist()
    bounds[::7] = [_BOUNDS[i % len(_BOUNDS)] for i in range(len(bounds[::7]))]
    scalar, draws = make_rng(seed), Draws(make_rng(seed))
    assert [draws.below(n) for n in bounds] == [int(scalar.integers(0, n)) for n in bounds]


@pytest.mark.parametrize("first", ["below", "random"])
def test_a_generator_with_a_pending_half_word_is_picked_up(first):
    scalar, source = make_rng(5), make_rng(5)
    for rng in (scalar, source):
        rng.integers(0, 10)  # takes a word's low half, leaves its high half
    assert source.bit_generator.state["has_uint32"] == 1
    draws = Draws(source)
    script = [(first, 1000, 0)] + _mixed_script(1000, 40)
    assert _served(draws, script) == _scalar(scalar, script)


@pytest.mark.parametrize("draws_taken", [0, 1, 5, _WORD_CHUNK - 1, _WORD_CHUNK, _WORD_CHUNK + 3])
@pytest.mark.parametrize("kind", ["random", "below"])
def test_settle_leaves_the_scalar_generator_state(kind, draws_taken):
    """Partial consumption rewinds the unused words; a whole chunk served
    (``random`` x ``_WORD_CHUNK``) rewinds none. The pending half-word
    and numpy's stale ``uinteger`` survive both."""
    scalar, source = make_rng(2), make_rng(2)
    script = [(kind, 65537, 0)] * draws_taken
    draws = Draws(source)
    _served(draws, script)
    _scalar(scalar, script)
    draws.settle()
    assert source.bit_generator.state == scalar.bit_generator.state
    # Settled draws go on from the generator's position.
    more = _mixed_script(3, 50)
    assert _served(draws, more) == _scalar(scalar, more)


def test_a_bound_of_one_takes_no_word():
    source, untouched = make_rng(4), make_rng(4)
    draws = Draws(source)
    assert [draws.below(1) for _ in range(10)] == [0] * 10
    draws.settle()
    assert source.bit_generator.state == untouched.bit_generator.state


def test_a_deep_copy_mid_stream_replays_the_original():
    draws = Draws(make_rng(11))
    for n in range(1, _WORD_CHUNK + 200):
        draws.below(n)
        draws.random()
    clone = copy.deepcopy(draws)
    assert clone._words is draws._words  # shared, never mutated
    script = _mixed_script(3_000_000_000, 2 * _WORD_CHUNK)
    replayed = _served(clone, script)  # the clone refills first
    assert _served(draws, script) == replayed
    clone.settle()
    draws.settle()
    assert clone.rng.bit_generator.state == draws.rng.bit_generator.state


@pytest.mark.parametrize("n", [0, -3, 2**32 + 1])
def test_bounded_draws_refuse_a_bound_outside_one_to_two_to_the_32(n):
    draws = Draws(make_rng(0))
    with pytest.raises(ValueError, match="outside"):
        draws.below(n)


def test_draws_refuse_a_generator_other_than_pcg64():
    with pytest.raises(TypeError, match="PCG64"):
        Draws(np.random.Generator(np.random.MT19937(0)))
