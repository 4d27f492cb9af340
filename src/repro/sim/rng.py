"""Deterministic random-number plumbing.

Every stochastic component in the reproduction takes an explicit
:class:`numpy.random.Generator`. These helpers centralize construction so
experiments are reproducible bit-for-bit from a single integer seed and so
independent subsystems (workload generator, device fault injection, tenant
arrival processes) get statistically independent streams.
"""

from __future__ import annotations

from collections.abc import Iterator

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
    """Yield what ``count`` calls of ``int(rng.integers(0, high))`` would return.

    Drawn a chunk at a time: one generator call per op costs more than the
    draw itself, and one array for all ops holds memory a long loop has
    no use for. The stream is the scalar one, draw for draw.
    """
    for start in range(0, count, _DRAW_CHUNK):
        yield from rng.integers(0, high, size=min(_DRAW_CHUNK, count - start)).tolist()


def spawn_rngs(seed: int | None, count: int) -> list[np.random.Generator]:
    """Derive ``count`` independent generators from one seed.

    Uses :meth:`numpy.random.SeedSequence.spawn`, which guarantees
    non-overlapping streams -- unlike seeding with ``seed + i``, which can
    collide across experiments that also offset seeds.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    root = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(count)]


__all__ = ["draw_ints", "make_rng", "spawn_rngs"]
