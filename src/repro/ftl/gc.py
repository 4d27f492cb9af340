"""Garbage-collection victim-selection policies.

Given the set of sealed (fully-programmed, non-active) blocks, a policy
picks the next victim to reclaim. The classics:

- **Greedy** minimizes copy-forward work *now* by taking the block with the
  fewest valid pages. Optimal for uniform random traffic; suboptimal when
  hot and cold data mix, because a recently-sealed hot block may momentarily
  look emptiest yet its remaining pages are about to die anyway.
- **Cost-benefit** (Rosenblum & Ousterhout's LFS cleaner) scores blocks by
  ``(1 - u) * age / (1 + u)`` where ``u`` is valid fraction, preferring old,
  mostly-empty blocks -- better under skew.
- **FIFO** reclaims blocks in seal order; endurance-friendly (perfectly
  even erase pressure) but oblivious to validity, so it copies more.

The paper's point (§2.4, §4.1) is that *no* policy can beat application
knowledge: even a near-optimal cleaner is capped by the information
barrier, which is what moving GC to the host removes.
"""

from __future__ import annotations

import abc

import numpy as np


class VictimPolicy(abc.ABC):
    """Strategy interface for choosing the next GC victim block."""

    name: str = "abstract"

    @abc.abstractmethod
    def select(
        self,
        candidates: np.ndarray,
        valid_counts: np.ndarray,
        pages_per_block: int,
        seal_times: np.ndarray,
        now: int,
    ) -> int:
        """Return the victim block id.

        Parameters
        ----------
        candidates:
            Sealed block ids eligible for collection, ascending. A tie
            goes to the first occurrence (``np.argmin``/``argmax``
            semantics), so to the lowest block id.
        valid_counts:
            Current valid pages, indexed by block id.
        pages_per_block:
            Block capacity, for computing utilization.
        seal_times:
            The logical time each block was sealed (monotonic counter
            maintained by the FTL), indexed by block id.
        now:
            Current logical time (same counter).
        """

    def notify_sealed(self, block: int, now: int) -> None:
        """Hook: a block just became sealed. FIFO uses this for ordering."""

    def notify_erased(self, block: int) -> None:
        """Hook: a block was erased and returned to the free pool."""


class GreedyPolicy(VictimPolicy):
    """Pick the sealed block with the fewest valid pages."""

    name = "greedy"

    def select(self, candidates, valid_counts, pages_per_block, seal_times, now):
        if candidates.size == 0:
            raise ValueError("no GC candidates")
        return int(candidates[valid_counts[candidates].argmin()])


class CostBenefitPolicy(VictimPolicy):
    """LFS-style cost-benefit cleaning: maximize (1-u)*age/(1+u)."""

    name = "cost-benefit"

    def select(self, candidates, valid_counts, pages_per_block, seal_times, now):
        if candidates.size == 0:
            raise ValueError("no GC candidates")
        u = valid_counts[candidates] / pages_per_block
        age = np.maximum(now - seal_times[candidates], 1)
        score = (1.0 - u) * age / (1.0 + u)
        return int(candidates[score.argmax()])


class FifoPolicy(VictimPolicy):
    """Reclaim blocks strictly in the order they were sealed."""

    name = "fifo"

    def __init__(self) -> None:
        self._order: dict[int, int] = {}
        self._counter = 0

    def notify_sealed(self, block: int, now: int) -> None:
        self._counter += 1
        self._order[block] = self._counter

    def notify_erased(self, block: int) -> None:
        self._order.pop(block, None)

    def select(self, candidates, valid_counts, pages_per_block, seal_times, now):
        if candidates.size == 0:
            raise ValueError("no GC candidates")
        get = self._order.get
        ranks = np.fromiter(
            (get(int(b), 0) for b in candidates), dtype=np.int64, count=candidates.size
        )
        return int(candidates[ranks.argmin()])


_POLICIES = {
    "greedy": GreedyPolicy,
    "cost-benefit": CostBenefitPolicy,
    "fifo": FifoPolicy,
}


def make_policy(name: str) -> VictimPolicy:
    """Construct a victim policy by name ('greedy', 'cost-benefit', 'fifo')."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise ValueError(
            f"unknown GC policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None


__all__ = [
    "CostBenefitPolicy",
    "FifoPolicy",
    "GreedyPolicy",
    "VictimPolicy",
    "make_policy",
]
