"""FTL metadata durability: checkpointing the mapping state.

§2.1 lists among the conventional FTL's responsibilities "storing FTL
data structures durably and in a consistent state to prepare for
power-off events". That durability costs flash writes: dirty translation
pages must be journaled or checkpointed, and the cost scales with the
*size* of the mapping state -- a page-granularity map dirties a 4 KiB
translation page for every ~1024 scattered host writes, while a ZNS
zone map's entire state fits in a page or two.

:class:`CheckpointPolicy` is a pure accounting model: callers report
dirtied logical pages and periodic checkpoints; it reports the metadata
pages written. Composed by :class:`CheckpointedFTL` (conventional) and
directly reusable for the ZNS side (where the whole map is one dirty
unit).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MappingSnapshot:
    """A durable point-in-time copy of an FTL's forward map.

    What a checkpoint conceptually writes to flash: the logical-to-
    physical table plus the program-serial *horizon* -- every program
    with serial below ``serial`` is reflected in ``l2p``; crash recovery
    replays the out-of-band metadata of pages programmed at or past it
    (see :meth:`~repro.ftl.ftl.ConventionalFTL.recover`).

    ``gtd`` is the demand-paged FTL's Global Translation Directory at
    snapshot time (``None`` for full-map FTLs); its recovery seeds the
    GTD from it and replays only translation programs past the horizon.
    """

    serial: int
    clock: int
    l2p: np.ndarray
    gtd: np.ndarray | None = None


@dataclass
class CheckpointStats:
    checkpoints: int = 0
    metadata_pages_written: int = 0

    def metadata_overhead(self, host_pages: int) -> float:
        """Extra flash writes per host write from metadata durability."""
        if host_pages == 0:
            return 0.0
        return self.metadata_pages_written / host_pages


class CheckpointPolicy:
    """Dirty-translation-page tracking with periodic checkpoints.

    Parameters
    ----------
    entries_per_metadata_page:
        Mapping entries one durable metadata page covers (1024 for 4-byte
        entries on 4 KiB pages).
    interval_writes:
        Host writes between checkpoints (RocksDB-style periodic flush of
        the FTL's journal). 0 disables checkpointing.
    """

    def __init__(self, entries_per_metadata_page: int = 1024, interval_writes: int = 4096):
        if entries_per_metadata_page < 1:
            raise ValueError("entries_per_metadata_page must be >= 1")
        if interval_writes < 0:
            raise ValueError("interval_writes must be >= 0")
        self.entries_per_page = entries_per_metadata_page
        self.interval_writes = interval_writes
        self.stats = CheckpointStats()
        self._dirty: set[int] = set()
        self._writes_since_checkpoint = 0

    @property
    def dirty_pages(self) -> int:
        return len(self._dirty)

    def note_mapping_update(self, lpn: int) -> int:
        """Record one mapping mutation; returns metadata pages written now.

        A checkpoint fires when the interval elapses, writing every dirty
        metadata page once.
        """
        if self.interval_writes == 0:
            return 0
        self._dirty.add(lpn // self.entries_per_page)
        self._writes_since_checkpoint += 1
        if self._writes_since_checkpoint >= self.interval_writes:
            return self.checkpoint()
        return 0

    def checkpoint(self) -> int:
        """Force a checkpoint; returns metadata pages written."""
        written = len(self._dirty)
        self.stats.checkpoints += 1
        self.stats.metadata_pages_written += written
        self._dirty.clear()
        self._writes_since_checkpoint = 0
        return written


class CheckpointedFTL:
    """A conventional FTL with mapping-durability accounting attached.

    Data-path behaviour is untouched; the checkpoint policy observes
    mapping mutations (writes, trims) and accrues the metadata write
    traffic a power-safe FTL must generate. The grand-total WA property
    combines both.
    """

    def __init__(self, ftl, interval_writes: int = 4096):
        self.ftl = ftl
        self.policy = CheckpointPolicy(
            entries_per_metadata_page=ftl.geometry.page_size // 4,
            interval_writes=interval_writes,
        )
        #: The most recent durable mapping snapshot; what survives a crash.
        self.snapshot: MappingSnapshot | None = None

    def write(self, lpn: int, stream: int = 0, build_ops: bool = True):
        ops = self.ftl.write(lpn, stream=stream, build_ops=build_ops)
        if self.policy.note_mapping_update(lpn):
            self.snapshot = self.ftl.snapshot_mapping()
        return ops

    def read(self, lpn: int):
        return self.ftl.read(lpn)

    def trim(self, lpn: int) -> None:
        self.ftl.trim(lpn)
        if self.policy.note_mapping_update(lpn):
            self.snapshot = self.ftl.snapshot_mapping()

    # -- Power-loss protocol -------------------------------------------------

    def crash(self) -> None:
        """Power loss: the wrapped FTL drops all volatile state."""
        self.ftl.crash()

    def recover(self) -> int:
        """Rebuild the mapping from the last snapshot + OOB replay."""
        return self.ftl.recover(self.snapshot)

    @property
    def total_write_amplification(self) -> float:
        """Device WA plus the metadata-durability surcharge."""
        return self.ftl.nand.counters.write_amplification(
            metadata_pages=self.policy.stats.metadata_pages_written
        )


__all__ = [
    "CheckpointPolicy",
    "CheckpointStats",
    "CheckpointedFTL",
    "MappingSnapshot",
]
