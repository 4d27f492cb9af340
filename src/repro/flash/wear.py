"""Endurance tracking and bad-block management.

Each erase cycle wears a block; past its rated endurance a block may fail
to erase and is retired ("grown bad block"). Conventional FTLs wear-level
to spread erases; ZNS devices handle failures by shrinking or offlining
zones (paper §2.1). The tracker is shared by both device models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.flash.state import Replayable


@dataclass
class WearStats:
    """Summary of wear across live blocks."""

    min_erases: int
    max_erases: int
    mean_erases: float
    std_erases: float
    bad_blocks: int

    @property
    def imbalance(self) -> float:
        """Coefficient of variation of erase counts (0 = perfectly level)."""
        if self.mean_erases <= 0:
            return 0.0
        return self.std_erases / self.mean_erases


@dataclass
class WearTracker(Replayable):
    """Per-block erase counts, endurance limits, and failure injection.

    Parameters
    ----------
    total_blocks:
        Number of erasure blocks tracked.
    endurance_cycles:
        Rated erase budget per block; 0 disables wear-out entirely
        (useful for experiments that are not about endurance).
    failure_rng / failure_probability:
        Past the rated endurance, each further erase fails with
        ``failure_probability`` (grown bad block). With no RNG supplied,
        blocks fail deterministically exactly at the limit, which makes
        endurance tests reproducible.
    """

    total_blocks: int
    endurance_cycles: int = 0
    failure_probability: float = 0.5
    failure_rng: np.random.Generator | None = None
    erase_counts: np.ndarray = field(init=False, repr=False)
    #: Boolean retired-block mask kept in lockstep with the ``_bad`` set so
    #: bulk scans (erased-block sweeps) stay vectorized.
    bad_mask: np.ndarray = field(init=False, repr=False)
    #: Memoryviews of the two arrays' buffers, for scalar access; neither
    #: array is ever rebound (DESIGN.md §6).
    erase_counts_v: memoryview = field(init=False, repr=False, compare=False)
    bad_mask_v: memoryview = field(init=False, repr=False, compare=False)
    _bad: set[int] = field(default_factory=set, repr=False)

    def __post_init__(self) -> None:
        if self.total_blocks < 1:
            raise ValueError("total_blocks must be >= 1")
        self.erase_counts = np.zeros(self.total_blocks, dtype=np.int64)
        self.erase_counts_v = memoryview(self.erase_counts)
        self.bad_mask = np.zeros(self.total_blocks, dtype=bool)
        self.bad_mask_v = memoryview(self.bad_mask)
        for block in self._bad:
            self.bad_mask_v[block] = True

    def is_bad(self, block: int) -> bool:
        return block in self._bad

    @property
    def bad_blocks(self) -> frozenset[int]:
        return frozenset(self._bad)

    def mark_bad(self, block: int) -> None:
        """Retire a block (grown defect or erase failure)."""
        self._check(block)
        self._bad.add(block)
        self.bad_mask_v[block] = True

    def record_erase(self, block: int) -> bool:
        """Count one erase; returns False if the block failed and retired.

        Failure semantics: with endurance disabled (0) erases always
        succeed. Otherwise, once past the rated cycles the block fails
        deterministically -- exactly on the first erase past the budget
        -- when no RNG is supplied or ``failure_probability`` is 0, and
        with ``failure_probability`` per erase when an RNG is provided.
        """
        if not 0 <= block < self.total_blocks:
            self._check(block)
        if self.bad_mask_v[block]:
            raise ValueError(f"erase on retired block {block}")
        count = self.erase_counts_v[block] + 1
        self.erase_counts_v[block] = count
        if self.endurance_cycles <= 0:
            return True
        if count <= self.endurance_cycles:
            return True
        if self.failure_rng is None or self.failure_probability <= 0:
            self._bad.add(block)
            self.bad_mask_v[block] = True
            return False
        if self.failure_rng.random() < self.failure_probability:
            self._bad.add(block)
            self.bad_mask_v[block] = True
            return False
        return True

    def stats(self) -> WearStats:
        live = self.erase_counts[~self.bad_mask]
        if live.size == 0:
            return WearStats(0, 0, 0.0, 0.0, len(self._bad))
        return WearStats(
            min_erases=int(live.min()),
            max_erases=int(live.max()),
            mean_erases=float(live.mean()),
            std_erases=float(live.std()),
            bad_blocks=len(self._bad),
        )

    def _check(self, block: int) -> None:
        if not 0 <= block < self.total_blocks:
            raise IndexError(f"block {block} out of range [0, {self.total_blocks})")


__all__ = ["WearStats", "WearTracker"]
