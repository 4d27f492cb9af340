"""Deterministic random-number plumbing.

Every stochastic component in the reproduction takes an explicit
:class:`numpy.random.Generator`. These helpers centralize construction so
experiments are reproducible bit-for-bit from a single integer seed.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain

import numpy as np

_DRAW_CHUNK = 8192


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


__all__ = ["draw_ints", "make_rng"]
