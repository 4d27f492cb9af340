"""cProfile capture for experiment runs (``zns-repro run --profile``).

The executor profiles each unit of work (a whole experiment or a single
sweep point) on its own, inline or in a pool worker, and the top
cumulative-time entries travel back with the unit's output into
:attr:`ExperimentResult.metrics`.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Any, Callable

#: How many entries of the cumulative-time ranking are kept.
TOP_ENTRIES = 30


def profiled_call(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[Any, list[dict]]:
    """Run ``fn`` under cProfile; returns (result, top cumulative entries)."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profile.disable()
    return result, top_entries(profile)


def top_entries(profile: cProfile.Profile, limit: int = TOP_ENTRIES) -> list[dict]:
    """The ``limit`` hottest functions by cumulative time, JSON-safe."""
    rows = [
        {
            "function": func,
            "location": f"{os.path.basename(filename)}:{line}" if line else filename,
            "ncalls": int(ncalls),
            "tottime_s": round(tottime, 6),
            "cumtime_s": round(cumtime, 6),
        }
        for (filename, line, func), (_cc, ncalls, tottime, cumtime, _callers) in (
            pstats.Stats(profile).stats.items()  # type: ignore[attr-defined]
        )
    ]
    rows.sort(key=lambda row: (-row["cumtime_s"], row["location"], row["function"]))
    return rows[:limit]


__all__ = ["TOP_ENTRIES", "profiled_call", "top_entries"]
