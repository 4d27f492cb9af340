"""Storage backends for SSTable files.

The same LSM tree runs over either backend; the difference in how
immutable files map to flash is exactly the paper's block-interface tax:

- :class:`BlockFileBackend` places files in LBA extents on a block device.
  Freed extents are either TRIMmed (cooperative filesystems) or silently
  reused later (the common case the paper worries about), in which case
  the FTL discovers the deaths only on overwrite and drags dead data
  through garbage collection meanwhile.
- :class:`ZoneFileBackend` appends files into zones segregated by LSM
  level (ZenFS's layout insight: tables of one level share fate at
  compaction). Zones usually become fully dead and reset for free.
"""

from __future__ import annotations

import abc
import bisect
import itertools
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from repro.apps.lsm.sstable import SSTable
from repro.block.interface import BlockDevice
from repro.hostio.zonelog import ZoneLog, ZoneLogFull
from repro.zns.device import ZNSDevice
from repro.zns.zone import ZoneState


@dataclass
class BackendStats:
    """What the backend did that the flash counts cannot show; the pages
    it writes, reads and relocates are the NAND's per-cause ops."""

    pages_trimmed: int = 0


class LsmBackend(abc.ABC):
    """Where SSTable files live."""

    stats: BackendStats

    @property
    @abc.abstractmethod
    def page_size(self) -> int: ...

    @property
    @abc.abstractmethod
    def capacity_pages(self) -> int: ...

    @abc.abstractmethod
    def write_table(self, table: SSTable) -> None:
        """Persist a table's pages; sets ``table.handle``."""

    @abc.abstractmethod
    def delete_table(self, table: SSTable) -> None:
        """Release a table's pages."""

    @abc.abstractmethod
    def read_table_page(self, table: SSTable, page_index: int) -> None:
        """Perform the device read for one page of a table."""

    def read_entry(self, table: SSTable, entry_index: int) -> None:
        """Perform the device read for the page holding one entry."""
        self.read_table_page(table, table.page_of_entry(entry_index))

    @abc.abstractmethod
    def append_wal_page(self) -> None:
        """Durably append one page to the write-ahead log."""

    @abc.abstractmethod
    def reset_wal(self) -> None:
        """Drop the WAL (its contents are now covered by a flushed table)."""


# -- Block-device backend ------------------------------------------------------


class _Extent(NamedTuple):
    """``length`` blocks from ``start``: a piece of a file, or a free run."""

    start: int
    length: int

    @property
    def end(self) -> int:
        return self.start + self.length


_extent_start = attrgetter("start")


class AllocationError(Exception):
    """The backend has no space for the requested file."""


class ExtentAllocator:
    """Extent allocator with coalescing free list.

    Three placement strategies:

    - ``first-fit``: always allocate from the lowest free addresses.
      Concentrates reuse in a small LBA region (unrealistically kind to
      the FTL: most of the logical space never looks valid).
    - ``next-fit`` (default): a rotating cursor, like real filesystems'
      block allocators, which spreads files across the whole LBA space.
      Combined with ``trim_on_delete=False`` this is what makes the FTL
      see the entire logical space as live and pay GC for it.
    - ``aged``: free extents are consumed in randomized order, modeling a
      filesystem after months of churn whose free list is scattered. This
      makes overwrite order approach random at the FTL -- the regime where
      conventional-SSD GC pays multiples of write amplification.

    Files may span multiple extents when no single free range fits, which
    is precisely the fragmentation that interleaves unrelated files in the
    FTL's write stream.

    The free list is two int columns, ``_starts`` and ``_ends``: the free
    runs ``[start, end)`` in address order, disjoint and coalesced (no two
    touch), bisected directly. :attr:`free_extents` is its one derived view.
    """

    def __init__(
        self,
        total_blocks: int,
        strategy: str = "next-fit",
        rng: "np.random.Generator | None" = None,
    ):
        if total_blocks < 1:
            raise ValueError("total_blocks must be >= 1")
        if strategy not in ("first-fit", "next-fit", "aged"):
            raise ValueError(f"unknown allocation strategy {strategy!r}")
        self.total_blocks = total_blocks
        self.strategy = strategy
        self.rng = rng
        self._cursor = 0
        self._starts: list[int] = [0]
        self._ends: list[int] = [total_blocks]
        self.free_blocks = total_blocks

    @property
    def free_extents(self) -> list[_Extent]:
        """The free list as extents, in address order (built on demand)."""
        return [_Extent(start, end - start) for start, end in zip(self._starts, self._ends)]

    def allocate(self, length: int) -> list[_Extent]:
        """Allocate ``length`` blocks, possibly as several extents.

        Walks the strategy's placement order (as free-list indices) only
        until the request is met and edits the columns in place; ``aged``
        draws exactly one permutation of the free list per call and reads
        only as much of it as the request takes.
        """
        if length < 1:
            raise ValueError("length must be >= 1")
        if length > self.free_blocks:
            raise AllocationError(
                f"requested {length} blocks, {self.free_blocks} free"
            )
        starts, ends = self._starts, self._ends
        if self.strategy == "next-fit":
            # Allocation resumes at the cursor: split the run that spans
            # it, so the region behind the cursor is only reused after a
            # full wrap, then go from there on and wrap to the front.
            cursor = self._cursor
            at = bisect.bisect_right(ends, cursor)
            if at < len(starts) and starts[at] < cursor:
                ends.insert(at, cursor)
                starts.insert(at + 1, cursor)
                at += 1
            order = itertools.chain(range(at, len(starts)), range(at))
        elif self.strategy == "aged":
            if self.rng is None:
                self.rng = np.random.default_rng(0)
            order = self.rng.permutation(len(starts))  # iterated lazily
        else:
            order = range(len(starts))
        taken: list[_Extent] = []
        emptied: list[int] = []
        remaining = length
        for index in order:
            start = starts[index]
            size = ends[index] - start
            if size > remaining:
                # The remainder keeps its place, so the columns stay sorted.
                taken.append(_Extent(start, remaining))
                starts[index] = start + remaining
                break
            taken.append(_Extent(start, size))
            emptied.append(index)
            remaining -= size
            if remaining == 0:
                break
        for index in sorted(emptied, reverse=True):
            del starts[index]
            del ends[index]
        self.free_blocks -= length
        last = taken[-1]
        self._cursor = (last.start + last.length) % self.total_blocks
        return taken

    def free(self, extents: list[_Extent]) -> None:
        """Return extents to the free list, coalescing neighbors.

        The request is checked whole -- against the free list and against
        itself -- before the list is edited, so a double free leaves the
        allocator as it was. Each extent is then bisected into place and
        joined to its two neighbors; the list is coalesced after every
        call, so nothing further can merge.
        """
        starts, ends = self._starts, self._ends
        behind = 0  # end of the previous extent of the request, in address order
        for start, length in sorted(extents, key=_extent_start):
            at = bisect.bisect_right(starts, start)
            if (
                start < behind
                or (at and ends[at - 1] > start)
                or (at < len(starts) and starts[at] < start + length)
            ):
                raise ValueError(f"double free around block {start}")
            behind = start + length
        for start, length in extents:
            end = start + length
            at = bisect.bisect_right(starts, start)
            if at and ends[at - 1] == start:
                if at < len(starts) and starts[at] == end:
                    # Fills the gap between two runs: they become one.
                    ends[at - 1] = ends[at]
                    del starts[at]
                    del ends[at]
                else:
                    ends[at - 1] = end
            elif at < len(starts) and starts[at] == end:
                starts[at] = start
            else:
                starts.insert(at, start)
                ends.insert(at, end)
            self.free_blocks += length

    def check_invariants(self) -> None:
        """Assert the free columns are sorted, coalesced and counted."""
        assert len(self._starts) == len(self._ends), "free columns differ in length"
        free = self.free_extents
        for extent in free:
            assert extent.length > 0, f"empty free extent at block {extent.start}"
        for left, right in zip(free, free[1:]):
            assert left.end < right.start, (
                f"free extents at blocks {left.start} and {right.start} "
                "are out of order, overlap or touch"
            )
        if free:
            assert free[0].start >= 0 and free[-1].end <= self.total_blocks, (
                "free list reaches outside the device"
            )
        assert self.free_blocks == sum(extent.length for extent in free), (
            "allocator's running free count drifted from its free list"
        )
        assert 0 <= self._cursor < self.total_blocks, f"cursor {self._cursor} out of range"


class BlockFileBackend(LsmBackend):
    """SSTable files as LBA extents on a block device.

    Parameters
    ----------
    device:
        Any :class:`~repro.block.interface.BlockDevice`.
    trim_on_delete:
        If True, freed pages are TRIMmed immediately (the FTL learns of
        deaths right away). If False -- the default, matching filesystems
        without aggressive discard -- freed LBAs are only reused later,
        so dead data lingers as "valid" inside the FTL.
    """

    def __init__(
        self,
        device: BlockDevice,
        trim_on_delete: bool = False,
        allocation_strategy: str = "next-fit",
    ):
        self.device = device
        self.trim_on_delete = trim_on_delete
        self.allocator = ExtentAllocator(device.num_blocks, strategy=allocation_strategy)
        self.stats = BackendStats()
        self._wal_extents: list[_Extent] = []

    @property
    def page_size(self) -> int:
        return self.device.block_size

    @property
    def capacity_pages(self) -> int:
        return self.device.num_blocks

    def write_table(self, table: SSTable) -> None:
        if table.handle is not None:
            raise ValueError(f"table {table.table_id} already written")
        extents = self.allocator.allocate(table.size_pages)
        for extent in extents:
            self.device.write_blocks(extent.start, extent.length)
        table.handle = extents

    def delete_table(self, table: SSTable) -> None:
        extents: list[_Extent] = table.handle
        if extents is None:
            raise ValueError(f"table {table.table_id} has no storage")
        if self.trim_on_delete:
            for extent in extents:
                for lba in range(extent.start, extent.end):
                    self.device.trim_block(lba)
                    self.stats.pages_trimmed += 1
        self.allocator.free(extents)
        table.handle = None

    def read_table_page(self, table: SSTable, page_index: int) -> None:
        extents: list[_Extent] = table.handle
        remaining = page_index
        for extent in extents:
            if remaining < extent.length:
                self.device.read_block(extent.start + remaining)
                return
            remaining -= extent.length
        raise IndexError(f"page {page_index} beyond extents")

    def append_wal_page(self) -> None:
        """WAL pages are allocated one at a time from the shared allocator,
        so they land adjacent to whatever file writes are in flight -- the
        lifetime mixing inside erasure blocks that §4.1 describes."""
        extents = self.allocator.allocate(1)
        self.device.write_block(extents[0].start)
        self._wal_extents.extend(extents)

    def reset_wal(self) -> None:
        if not self._wal_extents:
            return
        if self.trim_on_delete:
            for extent in self._wal_extents:
                for lba in range(extent.start, extent.end):
                    self.device.trim_block(lba)
                    self.stats.pages_trimmed += 1
        self.allocator.free(self._wal_extents)
        self._wal_extents = []


# -- Zone-native backend (ZenFS-like) -------------------------------------------


@dataclass
class _ZoneExtent:
    zone: int
    offset: int
    length: int


class ZoneFileBackend(LsmBackend):
    """SSTable files appended into level-segregated zones.

    Each LSM level gets its own write frontier, so a zone fills with
    same-level tables that compaction will delete together. Fully-dead
    zones reset for free as soon as they die; under space pressure,
    victims' surviving tables are relocated with the device's simple-copy
    command. The zone pool is a :class:`~repro.hostio.zonelog.ZoneLog`
    (its ``resets``/``free_resets`` count the resets); the backend keeps
    the extents.
    """

    def __init__(self, device: ZNSDevice, reserve_zones: int = 2):
        if device.zone_count <= reserve_zones + 1:
            raise ValueError("device too small for the configured reserve")
        self.device = device
        self.reserve_zones = reserve_zones
        self.stats = BackendStats()
        self.log = ZoneLog(device, reserve=reserve_zones)
        self._tables: dict[int, SSTable] = {}  # extents in each table's handle
        self._wal_extents: list[_ZoneExtent] = []
        self._appending: list[_ZoneExtent] = []  # the file _append is part-way through

    @property
    def page_size(self) -> int:
        return self.device.page_size

    @property
    def capacity_pages(self) -> int:
        return self.device.zone_count * self.device.geometry.pages_per_zone

    # -- File operations --------------------------------------------------------

    def write_table(self, table: SSTable) -> None:
        if table.handle is not None:
            raise ValueError(f"table {table.table_id} already written")
        table.handle = self._append(f"level-{table.level}", table.size_pages)
        self._tables[table.table_id] = table

    def delete_table(self, table: SSTable) -> None:
        if self._tables.pop(table.table_id, None) is None:
            raise ValueError(f"table {table.table_id} has no storage")
        self._kill(table.handle)
        table.handle = None

    def read_table_page(self, table: SSTable, page_index: int) -> None:
        extents: list[_ZoneExtent] = table.handle
        remaining = page_index
        for extent in extents:
            if remaining < extent.length:
                self.device.read(extent.zone, extent.offset + remaining, build_ops=False)
                return
            remaining -= extent.length
        raise IndexError(f"page {page_index} beyond extents")

    def append_wal_page(self) -> None:
        """The WAL gets its own zone stream (ZenFS's layout), so its
        rapidly-dying pages never share flash with SSTable data."""
        self._wal_extents.extend(self._append("wal", 1))

    def reset_wal(self) -> None:
        extents, self._wal_extents = self._wal_extents, []
        self._kill(extents)

    # -- Zone plumbing ------------------------------------------------------------

    def _kill(self, extents: list[_ZoneExtent]) -> None:
        """Count a file's pages dead; sealed zones it leaves dead reset for free."""
        live = self.log.live_v
        for extent in extents:
            live[extent.zone] -= extent.length
            if live[extent.zone] < 0:
                raise AssertionError(f"zone {extent.zone} live count negative")
        for zone in sorted({e.zone for e in extents}):
            if live[zone] == 0 and self.log.sealed_v[zone]:
                self.log.reset(zone, free=True)

    def _append(self, stream: str, npages: int, source: _ZoneExtent | None = None) -> list:
        """Append ``npages`` live pages to the stream, spanning zones: new
        pages, or device simple copies of the ``source`` extent's."""
        extents: list[_ZoneExtent] = []
        if source is None:
            self._appending = extents
        done = 0
        while done < npages:
            zone = self._frontier(stream)
            zone_obj = self.device.zone(zone)
            chunk = min(npages - done, zone_obj.remaining)
            offset = zone_obj.wp
            if source is None:
                self.device.write(zone, npages=chunk, build_ops=False)
            else:
                start = source.offset + done
                pages = [(source.zone, start + i) for i in range(chunk)]
                self.device.simple_copy(pages, zone, build_ops=False)
            extents.append(_ZoneExtent(zone, offset, chunk))
            self.log.add(zone, chunk)
            done += chunk
        if source is None:
            self._appending = []
        return extents

    def _frontier(self, stream: str) -> int:
        try:
            return self.log.open(stream, 1, self._evacuate, self._pinned)
        except ZoneLogFull as err:
            raise AllocationError(
                f"{err} (pinned zones {sorted(self._pinned())}, {int(self.log.sealed.sum())} "
                f"sealed of {self.device.zone_count} on the device)"
            ) from None

    def _pinned(self) -> set[int]:
        """Zones reclaim must spare: WAL extents have no table to relocate (they die at
        the next flush anyway), and the file being appended is no table yet."""
        return {e.zone for e in self._wal_extents + self._appending}

    def _evacuate(self, victim: int) -> None:
        """Relocate the victim's surviving tables via device simple copy."""
        for table_id in sorted(self._tables):
            table = self._tables[table_id]
            if all(extent.zone != victim for extent in table.handle):
                continue
            new_extents: list[_ZoneExtent] = []
            for extent in table.handle:
                if extent.zone != victim:
                    new_extents.append(extent)
                    continue
                stream = f"level-{table.level}"
                new_extents.extend(self._append(stream, extent.length, extent))
                self.log.live_v[victim] -= extent.length
            table.handle = new_extents

    # -- Reporting -----------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the zone bookkeeping agrees with the files it places."""
        live = [0] * self.device.zone_count
        for extents in [t.handle for t in self._tables.values()] + [self._wal_extents]:
            for extent in extents:
                live[extent.zone] += extent.length
                wp = self.device.zone(extent.zone).wp
                assert extent.offset + extent.length <= wp, (
                    f"live extent ends at {extent.offset + extent.length} "
                    f"in zone {extent.zone}, above wp={wp}"
                )
        for zone, counted in enumerate(self.log.live.tolist()):
            assert counted == live[zone], (
                f"zone {zone} counts {counted} live pages, its extents hold {live[zone]}"
            )
        self.log.check_invariants()


__all__ = [
    "AllocationError",
    "BackendStats",
    "BlockFileBackend",
    "ExtentAllocator",
    "LsmBackend",
    "ZoneFileBackend",
]
