"""Synthetic address-stream generators.

All generators are lazy (yield one address per step), deterministic given a
seed, and sized in *logical pages* so they plug straight into device
facades. The shapes match the workloads the paper's experiments imply:
uniform random overwrites (the §2.2 WA curve) and skewed traffic (cache
and KV workloads).
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import closing

import numpy as np

from repro.sim.rng import Draws, draw_ints, make_rng

_ZIPF_CHUNK = 4096


def uniform_stream(
    num_pages: int, count: int, seed: int | np.random.Generator | None = 0
) -> Iterator[int]:
    """Uniform random page addresses: the classic worst case for GC.

    The stream of ``int(rng.integers(0, num_pages))`` per step, drawn a
    chunk at a time (:func:`~repro.sim.rng.draw_ints`).
    """
    if num_pages < 1:
        raise ValueError("num_pages must be >= 1")
    return draw_ints(make_rng(seed), num_pages, count)


def uniform_array(
    num_pages: int, count: int, seed: int | np.random.Generator | None = 0
) -> np.ndarray:
    """Vectorized :func:`uniform_stream`: the same addresses as one array.

    numpy's Generator draws an identical sequence whether ``integers`` is
    called ``count`` times or once with ``size=count``, so this is
    byte-for-byte the stream batched consumers can feed to
    ``write_pages``-style APIs.
    """
    if num_pages < 1:
        raise ValueError("num_pages must be >= 1")
    rng = make_rng(seed)
    return rng.integers(0, num_pages, size=count, dtype=np.int64)


def zipfian_stream(
    num_pages: int,
    count: int,
    theta: float = 0.99,
    seed: int | np.random.Generator | None = 0,
) -> Iterator[int]:
    """Zipfian-skewed addresses (YCSB-style) with parameter ``theta``.

    Uses the rejection-inversion-free approximation: rank ~ U^( -1/(1-theta) )
    via the standard bounded-Zipf inverse-CDF on a precomputed harmonic
    table for small spaces, falling back to the power-law approximation
    for large ones. Hot pages are the low addresses; callers that need hot
    pages scattered can permute.
    """
    if num_pages < 1:
        raise ValueError("num_pages must be >= 1")
    if not 0 < theta < 1:
        raise ValueError("theta must be in (0, 1)")
    rng = make_rng(seed)
    # Uniforms are drawn a chunk at a time, never more than are left, so
    # a caller's Generator advances by exactly ``count`` draws and the
    # addresses are those of one ``rng.random()`` per step.
    takes = (min(_ZIPF_CHUNK, count - start) for start in range(0, count, _ZIPF_CHUNK))
    if num_pages <= 1 << 16:
        ranks = np.arange(1, num_pages + 1, dtype=np.float64)
        weights = ranks ** (-theta)
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        for take in takes:
            yield from np.searchsorted(cdf, rng.random(take)).tolist()
    else:
        # Power-law approximation adequate for large address spaces. The
        # power stays in Python floats: ``np.power`` may differ from libm
        # in the last ulp, and ``int()`` truncates.
        exponent = 1.0 / (1.0 - theta)
        for take in takes:
            for u in rng.random(take).tolist():
                yield min(int(num_pages * (u**exponent)), num_pages - 1)


def hot_cold_stream(
    num_pages: int,
    count: int,
    hot_fraction: float = 0.1,
    hot_traffic: float = 0.9,
    seed: int | np.random.Generator | None = 0,
) -> Iterator[tuple[int, bool]]:
    """Two-temperature traffic: yields ``(page, is_hot)``.

    ``hot_fraction`` of the address space receives ``hot_traffic`` of the
    writes (e.g. 10% of pages get 90% of traffic). The tuple's flag lets
    placement-aware callers route hot and cold to different streams.

    Each step is ``rng.random()`` and then ``rng.integers(0, hot_pages)``
    or ``rng.integers(hot_pages, num_pages)``, served by one
    :class:`~repro.sim.rng.Draws`; a generator passed in is settled when
    the stream ends or is closed.
    """
    if not 0 < hot_fraction < 1:
        raise ValueError("hot_fraction must be in (0, 1)")
    if not 0 < hot_traffic < 1:
        raise ValueError("hot_traffic must be in (0, 1)")
    draws = Draws(make_rng(seed))
    random, below = draws.random, draws.below
    hot_pages = max(int(num_pages * hot_fraction), 1)
    cold_pages = num_pages - hot_pages
    try:
        for _ in range(count):
            if random() < hot_traffic:
                yield below(hot_pages), True
            else:
                yield hot_pages + below(cold_pages), False
    finally:
        draws.settle()


def hot_cold_array(
    num_pages: int,
    count: int,
    hot_fraction: float = 0.1,
    hot_traffic: float = 0.9,
    seed: int | np.random.Generator | None = 0,
) -> np.ndarray:
    """The addresses of :func:`hot_cold_stream` as one array.

    Collected from the stream itself, not re-vectorised: each address is
    a ``random()`` draw followed by an ``integers()`` draw whose bounds
    depend on it, so drawing either in bulk would be another sequence.
    """
    with closing(hot_cold_stream(num_pages, count, hot_fraction, hot_traffic, seed)) as stream:
        return np.fromiter((page for page, _hot in stream), dtype=np.int64, count=count)


def fill_then_churn(ftl, churn: np.ndarray | None = None) -> None:
    """Age a conventional FTL: map every logical page in order, then overwrite.

    The precondition every conventional arm starts from -- a full drive,
    and after ``churn`` (the addresses to overwrite, in order) one whose
    free pool sits at the GC watermark. Both phases go down as
    ``ftl.write_pages`` batches, which leave the state of one scalar
    ``write`` per address.
    """
    ftl.write_pages(np.arange(ftl.logical_pages, dtype=np.int64))
    if churn is not None:
        ftl.write_pages(churn)


__all__ = [
    "fill_then_churn",
    "hot_cold_array",
    "hot_cold_stream",
    "uniform_array",
    "uniform_stream",
    "zipfian_stream",
]
