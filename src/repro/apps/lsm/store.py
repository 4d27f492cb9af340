"""The LSM key-value store.

Ties together the memtable, SSTable levels, leveled compaction, and a
storage backend. The public API is ``put``/``get``/``delete``; flushes and
compactions run inline when thresholds trip (the simulator equivalent of
RocksDB's background threads -- timing experiments replay the resulting
I/O plan through the DES separately, see :mod:`repro.experiments.e4`).

Write-ahead logging is on by default: WAL pages are small and die at the
next flush, and *where they land* is a major interface difference -- the
block backend interleaves them with file data inside erasure blocks while
the zone backend isolates them in their own zone (ZenFS's layout).

The write path does once what is known once: ``put`` is a single Python
frame (``delete`` is a put of the tombstone), ``put_many`` writes a flush
window of puts with one ``dict.update``, the WAL buffer is two columns
with a durable watermark, and flush and compaction pass a table's two
columns down instead of (key, value) pairs. So does the read path:
``get`` hashes its key once and bisects each non-empty level once, and
``scan`` bisects each table once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import islice
from typing import Any

import numpy as np

from repro.apps.lsm.backends import BlockFileBackend, LsmBackend, ZoneFileBackend
from repro.apps.lsm.bloom import BloomFilter
from repro.apps.lsm.compaction import LeveledCompaction
from repro.apps.lsm.memtable import TOMBSTONE, MemTable
from repro.apps.lsm.sstable import SSTable, _max_key, _min_key, overlapping_run, size_in_pages
from repro.sim.rng import draw_ints

_ABSENT = object()  # a memtable miss, distinct from every value and TOMBSTONE
_PUT_CHUNK = 8192  # draws per put_many call in put_uniform


@dataclass(frozen=True)
class LSMConfig:
    """Store tunables.

    ``entry_bytes`` is the encoded size model for one key-value pair;
    ``memtable_pages`` is the flush threshold expressed in flash pages so
    the flush size is backend-independent.
    """

    memtable_pages: int = 64
    entry_bytes: int = 128
    l0_limit: int = 4
    level0_pages: int = 256
    level_multiplier: int = 10
    max_table_pages: int = 64
    max_levels: int = 7
    wal_enabled: bool = True

    def __post_init__(self) -> None:
        if self.memtable_pages < 1 or self.entry_bytes < 1:
            raise ValueError("invalid LSM configuration")


@dataclass
class LSMStats:
    """Application-level accounting for the WA breakdown."""

    user_writes: int = 0
    user_bytes: int = 0
    flush_pages: int = 0
    compaction_pages: int = 0
    wal_pages: int = 0
    flushes: int = 0
    compactions: int = 0
    gets: int = 0
    table_reads: int = 0
    bloom_skips: int = 0
    scans: int = 0
    scan_pages_read: int = 0
    recoveries: int = 0
    io_plan: list = field(default_factory=list, repr=False)

    @property
    def app_pages_written(self) -> int:
        return self.flush_pages + self.compaction_pages + self.wal_pages


@dataclass(frozen=True)
class IoPlanEntry:
    """One step of the store's device-level I/O plan (for timed replay).

    ``kind`` is 'flush' or 'compaction'; ``written_pages`` is the size of
    the new file(s); ``freed_pages`` were deleted with the inputs;
    ``after_user_ops`` is the user-op count when the step ran, so replay
    can pace background I/O against foreground traffic.
    """

    kind: str
    written_pages: int
    freed_pages: int
    after_user_ops: int
    level: int


class LSMStore:
    """A leveled LSM-tree KV store over a pluggable backend."""

    def __init__(self, backend: LsmBackend, config: LSMConfig | None = None):
        self.backend = backend
        self.config = config or LSMConfig()
        self.memtable = MemTable()
        self.levels: list[list[SSTable]] = [[] for _ in range(self.config.max_levels)]
        self.stats = LSMStats()
        # The WAL buffer: every put since the last flush, as two columns.
        # The first ``_wal_next_sync`` entries are on durable WAL pages; the
        # rest wait for their page to fill.
        self._wal_keys: list[Any] = []
        self._wal_values: list[Any] = []
        self._wal_next_sync = 0
        self.compaction = LeveledCompaction(
            l0_limit=self.config.l0_limit,
            level0_pages=self.config.level0_pages,
            level_multiplier=self.config.level_multiplier,
            max_table_pages=self.config.max_table_pages,
            entry_bytes=self.config.entry_bytes,
            page_size=backend.page_size,
        )
        # Per-put constants. The flush threshold uses the encoding model of
        # the SSTables, so it and the flushed file agree:
        # len * entry_bytes // page_size >= memtable_pages  <=>  len >= ceil(...).
        entry_bytes, page_size = self.config.entry_bytes, backend.page_size
        self._entry_bytes = entry_bytes
        self._wal_enabled = self.config.wal_enabled
        self._wal_entries_per_page = max(page_size // entry_bytes, 1)
        self._flush_entries = -(-self.config.memtable_pages * page_size // entry_bytes)

    # -- Public API -------------------------------------------------------------

    def put(self, key: Any, value: Any) -> None:
        """Insert or overwrite one key.

        One Python frame in the steady state: the memtable's dict is
        written directly, the key and value join the WAL columns, and the
        WAL page boundary is read off the columns' length. Entries past the
        ``_wal_next_sync`` watermark wait until a full page is written;
        that boundary is what a crash exposes: see :meth:`crash_and_recover`.
        """
        stats = self.stats
        stats.user_writes += 1
        stats.user_bytes += self._entry_bytes
        data = self.memtable.data
        data[key] = value
        if self._wal_enabled:
            wal_keys = self._wal_keys
            wal_keys.append(key)
            self._wal_values.append(value)
            if len(wal_keys) - self._wal_next_sync >= self._wal_entries_per_page:
                self._sync_wal_page()
        if len(data) >= self._flush_entries:
            self.flush()

    def put_many(self, keys: list[Any], values: list[Any]) -> None:
        """``put(k, v)`` for each pair in order, a flush window at a time.

        One put grows the memtable by at most one key, so none of the next
        ``_flush_entries - len(data)`` puts but the last can trip a flush:
        that run goes into the memtable with one ``dict.update``, each WAL
        page it fills is synced in order, and the flush, if due, runs after
        them, as at the run's last ``put``. The backend sees the device
        calls of the ``put`` loop in the same order. (Between calls the
        memtable is below its flush size, so every run holds a put.)
        Lengths that differ raise ``ValueError`` before anything changes.
        """
        count = len(keys)
        if len(values) != count:
            raise ValueError(f"{count} keys but {len(values)} values")
        stats, data = self.stats, self.memtable.data
        wal_enabled, per_page = self._wal_enabled, self._wal_entries_per_page
        wal_keys, wal_values = self._wal_keys, self._wal_values
        start = 0
        while start < count:
            end = min(count, start + self._flush_entries - len(data))
            run_keys, run_values = keys[start:end], values[start:end]
            data.update(zip(run_keys, run_values))
            stats.user_writes += len(run_keys)
            stats.user_bytes += len(run_keys) * self._entry_bytes
            if wal_enabled:
                wal_keys += run_keys
                wal_values += run_values
                while len(wal_keys) - self._wal_next_sync >= per_page:
                    self._sync_wal_page()
            if len(data) >= self._flush_entries:
                self.flush()
            start = end

    def delete(self, key: Any) -> None:
        """Delete a key: a put of the tombstone."""
        self.put(key, TOMBSTONE)

    def _sync_wal_page(self) -> None:
        """Write the next page of buffered WAL entries durably."""
        self.backend.append_wal_page()
        self.stats.wal_pages += 1
        self._wal_next_sync += self._wal_entries_per_page

    def crash_and_recover(self) -> int:
        """Simulate power loss and WAL replay; returns entries lost.

        Volatile state (the memtable and any WAL entries buffered but not
        yet written to a full flash page) disappears; recovery cuts the WAL
        columns back to the durable watermark and replays them into a fresh
        memtable. SSTables are immutable and survive untouched.
        """
        if not self.config.wal_enabled:
            lost = len(self.memtable)
            self.memtable.clear()
            self.stats.recoveries += 1
            return lost
        durable = self._wal_next_sync
        lost = len(self._wal_keys) - durable
        del self._wal_keys[durable:], self._wal_values[durable:]
        self.memtable.clear()
        self.memtable.data.update(zip(self._wal_keys, self._wal_values))
        self.stats.recoveries += 1
        return lost

    def get(self, key: Any) -> Any:
        """Point lookup; returns None for missing/deleted keys.

        Search order: memtable, then L0 newest-first, then the one candidate
        table of each non-empty deeper level. The key's bloom hashes are
        computed at its first bloom probe and serve every later one. Each
        table probe that reaches flash does a real backend page read.
        """
        stats = self.stats
        stats.gets += 1
        value = self.memtable.data.get(key, _ABSENT)
        if value is not _ABSENT:
            return None if value is TOMBSTONE else value
        hashes = None
        for number, tables in enumerate(self.levels):
            if not tables:
                continue
            if number:
                # Sorted, disjoint level: only the first table ending at or
                # after the key can hold it.
                start = bisect_left(tables, key, key=_max_key)
                tables = tables[start : start + 1]
            else:
                tables = reversed(tables)  # flush order, newest last
            for table in tables:
                if not table.min_key <= key <= table.max_key:
                    continue
                if hashes is None:
                    hashes = BloomFilter.hashes(key)
                if not table.bloom.might_contain_hashed(hashes):
                    stats.bloom_skips += 1
                    continue
                found, value, index = table.find(key)
                self.backend.read_entry(table, min(index, len(table.keys) - 1))
                stats.table_reads += 1
                if found:
                    return None if value is TOMBSTONE else value
        return None

    def scan(self, lo: Any, hi: Any) -> list[tuple[Any, Any]]:
        """Range scan: live (key, value) pairs with lo <= key <= hi.

        Merges all levels, the newest version winning (bloom filters do not
        help ranges), and charges the backend for every table page the
        range touches.
        One bisect pair per table: its entries [start, end) give both the
        pages charged and the slice merged.
        """
        if lo > hi:
            raise ValueError("scan requires lo <= hi")
        stats = self.stats
        stats.scans += 1
        # Oldest data first so newer versions overwrite during the merge.
        tables = [t for level in self.levels[:0:-1] for t in overlapping_run(level, lo, hi)]
        tables += [t for t in self.levels[0] if t.overlaps_range(lo, hi)]
        merged: dict[Any, Any] = {}
        read_table_page = self.backend.read_table_page
        for table in tables:
            keys = table.keys
            start = bisect_left(keys, lo)
            end = bisect_right(keys, hi, lo=start)
            if start == end:
                continue
            count, pages = len(keys), table.size_pages
            first, last = start * pages // count, (end - 1) * pages // count
            for page_index in range(first, last + 1):
                read_table_page(table, page_index)
            stats.scan_pages_read += last + 1 - first
            merged.update(zip(keys[start:end], table.values[start:end]))
        data = self.memtable.data  # unsorted: the result is sorted below
        merged.update({k: v for k, v in data.items() if lo <= k <= hi})
        return [(k, merged[k]) for k in sorted(merged) if merged[k] is not TOMBSTONE]

    def scan_count(self) -> int:
        """Number of live keys (full merge view) -- test/debug helper."""
        view: dict[Any, Any] = {}
        for level in range(len(self.levels) - 1, 0, -1):
            for table in self.levels[level]:
                view.update(zip(table.keys, table.values))
        for table in self.levels[0]:
            view.update(zip(table.keys, table.values))
        view.update(self.memtable.data)
        return sum(1 for v in view.values() if v is not TOMBSTONE)

    # -- Flush and compaction ----------------------------------------------------

    def flush(self) -> None:
        """Write the memtable as a new L0 table and run due compactions."""
        keys, values = self.memtable.sorted_columns()
        if not keys:
            return
        table = SSTable(
            keys=keys,
            values=values,
            level=0,
            size_pages=size_in_pages(
                len(keys), self.config.entry_bytes, self.backend.page_size
            ),
        )
        self.backend.write_table(table)
        self.levels[0].append(table)
        self.memtable.clear()
        if self.config.wal_enabled:
            # Everything in the WAL is now covered by the flushed table.
            self.backend.reset_wal()
            self._wal_keys.clear()
            self._wal_values.clear()
            self._wal_next_sync = 0
        self.stats.flushes += 1
        self.stats.flush_pages += table.size_pages
        self.stats.io_plan.append(
            IoPlanEntry("flush", table.size_pages, 0, self.stats.user_writes, 0)
        )
        self._compact_until_stable()

    def _compact_until_stable(self) -> None:
        while True:
            task = self.compaction.pick_task(self.levels)
            if task is None:
                return
            bottom = task.level + 1 == self.config.max_levels - 1 or not any(
                self.levels[task.level + 2 :]
            )
            outputs = self.compaction.merge(task, bottom_level=bottom)
            written = 0
            for out in outputs:
                self.backend.write_table(out)
                self.levels[task.level + 1].append(out)
                written += out.size_pages
            freed = 0
            for table in task.all_inputs:
                level_list = self.levels[table.level]
                level_list.remove(table)
                self.backend.delete_table(table)
                freed += table.size_pages
            self.levels[task.level + 1].sort(key=_min_key)
            self.stats.compactions += 1
            self.stats.compaction_pages += written
            self.stats.io_plan.append(
                IoPlanEntry(
                    "compaction", written, freed, self.stats.user_writes, task.level
                )
            )

    # -- Reporting -----------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the level structure the read and compaction paths rely on."""
        ids = [t.table_id for t in self.levels[0]]
        assert ids == sorted(ids), "L0 is not in flush order"
        for number, level in enumerate(self.levels[1:], start=1):
            for left, right in zip(level, level[1:]):
                assert left.max_key < right.min_key, (
                    f"L{number} tables {left.table_id} and {right.table_id} "
                    "are out of order or overlap"
                )
        tables = [t for level in self.levels for t in level]
        for table in tables:
            assert table.handle is not None, f"table {table.table_id} has no handle"
        backend = self.backend
        if isinstance(backend, BlockFileBackend):
            held = sum(e.length for t in tables for e in t.handle)
            held += sum(e.length for e in backend._wal_extents)
            allocator = backend.allocator
            allocator.check_invariants()
            assert allocator.free_blocks + held == backend.capacity_pages, (
                "allocator leaked or double-counted pages"
            )
        elif isinstance(backend, ZoneFileBackend):
            assert {t.table_id for t in tables} == backend._tables.keys(), (
                "backend's file registry differs from the level structure"
            )
            backend.check_invariants()

    def level_sizes_pages(self) -> list[int]:
        return [sum(t.size_pages for t in level) for level in self.levels]


def put_uniform(store: LSMStore, keys: list[Any], ops: int, rng: np.random.Generator) -> None:
    """Put ``ops`` uniform draws from the key table ``keys``, each key as its own value.

    The draws are ``draw_ints(rng, len(keys), ops)``, and go to
    :meth:`LSMStore.put_many` ``_PUT_CHUNK`` at a time: the store ends as a
    ``put`` per draw would leave it, and memory holds one chunk of draws.
    Build ``keys`` once per store (``list(range(n_keys))``) and pass it to
    every call: its objects lie in memory in key order, so every table's
    sorted columns, and a compaction merge walking them, read memory in
    order. A merge touches each entry's key and value about a dozen times,
    and objects allocated one per draw scatter those touches over the heap.
    The value is the key object because a value is opaque: ``entry_bytes``
    sizes every entry.
    """
    put_many = store.put_many
    draws = map(keys.__getitem__, draw_ints(rng, len(keys), ops))
    while chunk := list(islice(draws, _PUT_CHUNK)):
        put_many(chunk, chunk)


__all__ = ["IoPlanEntry", "LSMConfig", "LSMStats", "LSMStore", "put_uniform"]
