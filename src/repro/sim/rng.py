"""Deterministic random-number plumbing.

Every stochastic component in the reproduction takes an explicit
:class:`numpy.random.Generator`. These helpers centralize construction so
experiments are reproducible bit-for-bit from a single integer seed.
"""

from __future__ import annotations

import copy
from collections.abc import Iterator
from itertools import chain

import numpy as np

_DRAW_CHUNK = 8192

#: Raw 64-bit words :class:`Draws` takes from its generator per refill.
_WORD_CHUNK = 1024

_WORD_SPAN = 1 << 32
_LOW_HALF = _WORD_SPAN - 1
_DOUBLE_UNIT = 2.0**-53
_PCG64_PERIOD = 1 << 128  # advancing by the period less k steps back k


def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a Generator from a seed, pass one through, or seed from entropy.

    Accepting an already-constructed generator lets call sites compose: a
    parent component can hand a child its own stream or a spawned one.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def draw_ints(rng: np.random.Generator, high: int, count: int) -> Iterator[int]:
    """Iterate over what ``count`` calls of ``int(rng.integers(0, high))`` would return.

    Drawn a chunk at a time: one generator call per op costs more than the
    draw itself, and one array for all ops holds memory a long loop has
    no use for. The chunks are chained at C level, so a consumer taking
    draws in slices (``itertools.islice``) resumes no Python frame per
    draw. The stream is the scalar one, draw for draw.
    """
    return chain.from_iterable(
        rng.integers(0, high, size=min(_DRAW_CHUNK, count - start)).tolist()
        for start in range(0, count, _DRAW_CHUNK)
    )


class Draws:
    """Draw for draw, what scalar ``rng.integers`` and ``rng.random`` calls
    would return, at a Python call's cost instead of numpy's.

    The generator's raw 64-bit words are taken a chunk at a time
    (``bit_generator.random_raw``) and served the way numpy's PCG64 serves
    them. :meth:`random` is ``next_double``: the top 53 bits of one word.
    :meth:`below` is ``integers(0, n)`` for ``n`` up to 2**32: Lemire's
    multiply-and-reject step over ``next_uint32``, which hands out a word's
    low half and keeps its high half pending for the next 32-bit draw
    (``random`` leaves a pending half alone). The pending half starts as
    the generator's own (``has_uint32``/``uinteger``), so the two kinds of
    draw may interleave in any order, and ``lo + below(n)`` is
    ``integers(lo, lo + n)``.

    Words taken but not served are ahead of the generator's scalar
    position: :meth:`settle` puts them back, so a generator the caller
    passed in ends where scalar calls would have left it. Until then, a
    draw taken from the generator directly comes from past the buffered
    words. A deep copy copies the generator and shares the word list,
    which is replaced on refill, never mutated.
    """

    __slots__ = ("rng", "_words", "_next", "_half", "_has_half")

    def __init__(self, rng: np.random.Generator) -> None:
        if type(rng.bit_generator) is not np.random.PCG64:
            raise TypeError("Draws serves a PCG64 generator's words only")
        state = rng.bit_generator.state
        self.rng = rng
        self._words: list[int] = []
        self._next = 0
        self._half: int = state["uinteger"]
        self._has_half = bool(state["has_uint32"])

    def __deepcopy__(self, memo: dict) -> "Draws":
        clone = copy.copy(self)
        clone.rng = copy.deepcopy(self.rng, memo)
        memo[id(self)] = clone
        return clone

    def random(self) -> float:
        """``rng.random()``: a uniform float in [0, 1)."""
        index = self._next
        if index == len(self._words):
            self._words = self.rng.bit_generator.random_raw(_WORD_CHUNK).tolist()
            index = 0
        self._next = index + 1
        return (self._words[index] >> 11) * _DOUBLE_UNIT

    def below(self, n: int) -> int:
        """``int(rng.integers(0, n))``; ``ValueError`` unless 1 <= n <= 2**32."""
        if not 1 < n <= _WORD_SPAN:
            if n == 1:
                return 0  # like numpy, range(1) takes no word
            raise ValueError(f"bound {n} is outside 1..2**32")
        while True:
            if self._has_half:
                self._has_half = False
                m = self._half * n
            else:
                index = self._next
                if index == len(self._words):
                    self._words = self.rng.bit_generator.random_raw(_WORD_CHUNK).tolist()
                    index = 0
                self._next = index + 1
                word = self._words[index]
                self._half = word >> 32
                self._has_half = True
                m = (word & _LOW_HALF) * n
            # Lemire's test in numpy's order: the threshold ``(2**32 - n)
            # % n`` is below ``n``, so it is computed only for a low word
            # below ``n``; a low word below it rejects the word.
            low = m & _LOW_HALF
            if low >= n or low >= (_WORD_SPAN - n) % n:
                return m >> 32

    def settle(self) -> None:
        """Rewind the generator over the words not yet served, pending half kept.

        The generator is then where the scalar calls would have left it,
        ``bit_generator.state`` and all; later draws refill from there.
        """
        bits = self.rng.bit_generator
        unused = len(self._words) - self._next
        if unused:
            bits.advance(_PCG64_PERIOD - unused)
        state = bits.state
        state["has_uint32"] = int(self._has_half)
        state["uinteger"] = self._half
        bits.state = state
        self._words = []
        self._next = 0


__all__ = ["Draws", "draw_ints", "make_rng"]
