"""Pluggable wear-leveling policies for the conventional FTL.

Wear leveling is the other half of the conventional FTL's endurance
machinery (§2.1): garbage collection decides *when* a block is erased,
wear leveling decides *which* block absorbs the next writes, and -- for
static policies -- when cold data must be forcibly migrated off a
low-wear block so the block can rejoin circulation. Both knobs spend
flash operations the host never asked for, and both compete with grown
bad blocks for the same spare-capacity margin (a block retired by a
failed erase is a block wear leveling can no longer spread load onto).

Three policies, selected via ``FTLConfig.wl_policy`` /
``DeviceSpec.wl_policy``:

- ``none``: allocate free blocks in pool order, no wear awareness.
  The erase-count spread grows unboundedly under skew.
- ``dynamic`` (default): allocate the least-worn free block, tie-broken
  by rotating plane preference. This is "dynamic wear leveling" in the
  classic sense -- wear feedback at allocation time only -- and
  reproduces the FTL's historical allocation math exactly.
- ``static``: dynamic allocation *plus* cold-block migration: when the
  erase-count spread exceeds a threshold, the coldest sealed block's
  valid data is moved and the block erased, so blocks pinned by cold
  data still cycle. Costs extra copies (they show up in WA) but caps
  the spread -- the E14 endurance sweep quantifies the trade.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.ftl.mapping import SMALL_BATCH

if TYPE_CHECKING:  # pragma: no cover
    from repro.ftl.ftl import ConventionalFTL


class WearLevelPolicy(abc.ABC):
    """Strategy interface for free-block allocation and cold migration."""

    name: str = "abstract"

    #: True when the policy wants :meth:`wants_migration` consulted at
    #: block-allocation boundaries (static policies). The FTL's hot path
    #: checks this flag once per boundary; dynamic/none never pay more.
    migrates: bool = False

    @abc.abstractmethod
    def select(
        self,
        free: list[int],
        wear: memoryview,
        planes: int,
        preferred: int,
    ) -> int:
        """Index into ``free`` of the block to allocate next.

        ``free`` is the FTL's free pool, in pool order; ``wear`` is the
        per-block erase-count view (``WearTracker.erase_counts_v``);
        ``preferred`` is the rotating plane cursor for allocation-order
        plane spreading.
        """

    def wants_migration(self, spread: int) -> bool:
        """True when the erase-count spread warrants a cold-block swap."""
        return False


class NoWearLevel(WearLevelPolicy):
    """No wear awareness: allocate free blocks in pool order."""

    name = "none"

    def select(self, free, wear, planes, preferred):
        return 0


class DynamicWearLevel(WearLevelPolicy):
    """Least-worn allocation with rotating plane preference.

    The exact allocation math the FTL has always used: a lexicographic
    ``(wear, plane_distance)`` key collapsed to one integer because
    ``plane_distance < planes``, and the first minimum in pool order
    wins. A pool of at most :data:`~repro.ftl.mapping.SMALL_BATCH`
    blocks -- nearly every allocation, the pool hovering near the GC
    watermarks -- is scanned in Python; a larger one (a fresh device
    filling) takes ``argmin`` over the same key, whose first-occurrence
    tie-break is the loop's.
    """

    name = "dynamic"

    def select(self, free, wear, planes, preferred):
        if len(free) > SMALL_BATCH:
            blocks = np.fromiter(free, dtype=np.int64, count=len(free))
            key = np.asarray(wear)[blocks] * planes + (blocks - preferred) % planes
            return int(key.argmin())
        best, best_key, i = 0, None, 0
        for block in free:
            key = wear[block] * planes + (block - preferred) % planes
            if best_key is None or key < best_key:
                best, best_key = i, key
            i += 1
        return best


class StaticWearLevel(DynamicWearLevel):
    """Dynamic allocation plus threshold-triggered cold-block migration.

    ``threshold`` is the erase-count spread (max - min over live blocks)
    at which the FTL migrates its coldest sealed block at the next
    block-allocation boundary.
    """

    name = "static"
    migrates = True

    def __init__(self, threshold: int = 8):
        if threshold < 1:
            raise ValueError("static wear-level threshold must be >= 1")
        self.threshold = threshold

    def wants_migration(self, spread: int) -> bool:
        return spread >= self.threshold


_POLICIES: dict[str, type[WearLevelPolicy]] = {
    "none": NoWearLevel,
    "dynamic": DynamicWearLevel,
    "static": StaticWearLevel,
}

WL_POLICIES = tuple(sorted(_POLICIES))


def make_wearlevel(name: str | None, **kwargs: Any) -> WearLevelPolicy:
    """Construct a wear-level policy by name; ``None`` means the default."""
    key = "dynamic" if name is None else name
    try:
        cls = _POLICIES[key]
    except KeyError:
        raise ValueError(
            f"unknown wear-level policy {key!r}; choose from {list(WL_POLICIES)}"
        ) from None
    return cls(**kwargs)


def spare_report(ftl: "ConventionalFTL") -> dict[str, Any]:
    """Spare-pool accounting: wear leveling vs grown bad blocks.

    The margin between physical and exported capacity is one shared pool:
    GC headroom, wear-leveling freedom, and replacement for retired
    blocks all draw from it. ``spare_blocks_remaining`` is what is left
    after retirements -- when it reaches zero the device can no longer
    absorb a failure without shrinking exported capacity.
    """
    geometry = ftl.geometry
    wear = ftl.nand.wear.stats()
    ppb = geometry.pages_per_block
    logical_blocks = -(-ftl.logical_pages // ppb)  # ceil division
    spare_blocks = geometry.total_blocks - logical_blocks
    return {
        "wl_policy": ftl.wearlevel.name,
        "spare_blocks": spare_blocks,
        "blocks_retired": wear.bad_blocks,
        "spare_blocks_remaining": spare_blocks - wear.bad_blocks,
        "erase_spread": wear.max_erases - wear.min_erases,
        "erase_mean": round(wear.mean_erases, 3),
        "wear_imbalance": round(wear.imbalance, 4),
    }


__all__ = [
    "WL_POLICIES",
    "DynamicWearLevel",
    "NoWearLevel",
    "StaticWearLevel",
    "WearLevelPolicy",
    "make_wearlevel",
    "spare_report",
]
