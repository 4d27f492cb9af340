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

#: 32-bit words :class:`BoundedDraws` takes from its generator per refill.
_WORD_CHUNK = 1024

_WORD_SPAN = 1 << 32


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


class BoundedDraws:
    """Draw for draw, what ``int(rng.integers(0, n))`` would return, for
    any ``n`` in 1..2**32, at a Python call's cost instead of numpy's.

    ``rng.integers(0, n)`` with ``n`` up to 2**32 maps one ``next_uint32``
    word at a time through Lemire's multiply-and-reject step, and
    ``integers(0, 2**32, dtype=np.uint32)`` returns those words unmapped
    from the same stream. So the words are taken a chunk at a time and
    :meth:`below` maps each through the same step; ``n`` may change from
    one draw to the next. Like numpy, ``n == 1`` takes no word. The
    generator is the source's own: a draw taken from it directly comes
    from past the buffered words.

    A deep copy copies the generator and shares the word list, which is
    replaced on refill, never mutated.
    """

    __slots__ = ("rng", "_words", "_next")

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._words: list[int] = []
        self._next = 0

    def __deepcopy__(self, memo: dict) -> "BoundedDraws":
        clone = BoundedDraws(copy.deepcopy(self.rng, memo))
        memo[id(self)] = clone
        clone._words = self._words
        clone._next = self._next
        return clone

    def below(self, n: int) -> int:
        """A uniform draw from ``range(n)``; ``ValueError`` unless 1 <= n <= 2**32."""
        if not 1 < n <= _WORD_SPAN:
            if n == 1:
                return 0
            raise ValueError(f"bound {n} is outside 1..2**32")
        index = self._next
        words = self._words
        while True:
            if index == len(words):
                words = self._words = self.rng.integers(
                    0, _WORD_SPAN, size=_WORD_CHUNK, dtype=np.uint32
                ).tolist()
                index = 0
            m = words[index] * n
            index += 1
            # Lemire's test in numpy's order: the threshold ``(2**32 - n)
            # % n`` is below ``n``, so it is computed only for a low word
            # below ``n``; a low word below it rejects the word.
            low = m & 0xFFFFFFFF
            if low >= n or low >= (_WORD_SPAN - n) % n:
                self._next = index
                return m >> 32


__all__ = ["BoundedDraws", "draw_ints", "make_rng"]
