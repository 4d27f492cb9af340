"""Immutable sorted runs (SSTables).

An SSTable is two parallel columns -- its sorted keys and their values --
plus its key range and an opaque backend handle recording where its pages
live. The write path (flush, compaction merge) hands the columns down as
it computed them and builds no per-entry pair; pairs exist only at the
``LSMStore.scan`` boundary and in the ``entries`` view tests and
debugging read. The columns stay in memory (this is a
simulator -- the *backend* accounts the flash traffic); page boundaries
are computed from an entry-size model so device I/O volume matches what a
real encoding would produce.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from repro.apps.lsm.bloom import BloomFilter

_ids = itertools.count()


@dataclass(eq=False)  # identity semantics: tables are unique objects
class SSTable:
    """One immutable sorted run.

    Attributes
    ----------
    keys, values:
        The strictly ascending keys and, position for position, their
        values (which may be TOMBSTONE). Owned by the table: never mutated.
    level:
        LSM level this table belongs to.
    size_pages:
        Flash pages the encoded table occupies.
    handle:
        Backend-assigned location token (set by the backend at write time).
    min_key, max_key:
        First and last key, set at construction.
    """

    keys: list[Any]
    values: list[Any]
    level: int
    size_pages: int
    table_id: int = field(default_factory=lambda: next(_ids))
    handle: Any = None

    def __post_init__(self) -> None:
        keys = self.keys
        if not keys:
            raise ValueError("SSTable cannot be empty")
        if len(keys) != len(self.values):
            raise ValueError("SSTable needs one value per key")
        if any(map(operator.ge, keys, itertools.islice(keys, 1, None))):
            raise ValueError("SSTable entries must be strictly sorted by key")
        # Plain attributes: the level bisects read them once per probe.
        self.min_key = keys[0]
        self.max_key = keys[-1]

    @property
    def entries(self) -> list[tuple[Any, Any]]:
        """The (key, value) pairs, built on demand -- a test/debug view."""
        return list(zip(self.keys, self.values))

    @cached_property
    def bloom(self) -> BloomFilter:
        """Per-table bloom filter: negative point lookups skip the flash
        probe entirely (RocksDB's ~10-bits-per-key read-path staple).

        Built on the first probe, so a table compacted away unprobed --
        every table of a write-only run -- never hashes its keys.
        """
        return BloomFilter.build(self.keys)

    def overlaps(self, other: "SSTable") -> bool:
        return self.min_key <= other.max_key and other.min_key <= self.max_key

    def overlaps_range(self, min_key: Any, max_key: Any) -> bool:
        return self.min_key <= max_key and min_key <= self.max_key

    def find(self, key: Any) -> tuple[bool, Any, int]:
        """Binary search: returns (present, value, entry_index)."""
        keys = self.keys
        i = bisect.bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            return True, self.values[i], i
        return False, None, i

    def page_of_entry(self, index: int) -> int:
        """Which of the table's pages holds entry ``index``.

        Entries pack uniformly: with N entries over P pages, entry i sits
        on page i * P // N. Exact byte-accurate packing would shift
        boundaries slightly but not the I/O counts experiments measure.
        """
        if not 0 <= index < len(self.keys):
            raise IndexError(f"entry index {index} out of range")
        return index * self.size_pages // len(self.keys)


_min_key = operator.attrgetter("min_key")
_max_key = operator.attrgetter("max_key")


def overlapping_run(tables: list[SSTable], lo: Any, hi: Any) -> list[SSTable]:
    """The tables of one level >= 1 whose key range touches [lo, hi].

    Such a level is sorted by ``min_key`` and pairwise disjoint, so
    ``max_key`` ascends too and the answer is one contiguous run, found
    by bisection; for a point (``lo == hi``) it holds at most one table.
    """
    start = bisect.bisect_left(tables, lo, key=_max_key)
    end = bisect.bisect_right(tables, hi, lo=start, key=_min_key)
    return tables[start:end]


def size_in_pages(entry_count: int, entry_bytes: int, page_size: int) -> int:
    """Pages an encoded run of ``entry_count`` entries occupies (>= 1)."""
    if entry_count < 1:
        raise ValueError("entry_count must be >= 1")
    total = entry_count * entry_bytes
    return max((total + page_size - 1) // page_size, 1)


__all__ = ["SSTable", "overlapping_run", "size_in_pages"]
