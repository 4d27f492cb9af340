"""The in-memory write buffer of the LSM tree."""

from __future__ import annotations

from typing import Any

#: Sentinel distinguishing a tombstone from "key absent".
TOMBSTONE = object()


class MemTable:
    """Mutable buffer of recent writes, sorted on demand.

    Keys are arbitrary orderable values; values are opaque. Deletes insert
    tombstones so the absence can shadow older on-disk versions. The store
    flushes on entry count (``len``), which its fixed per-entry encoding
    model turns into on-flash pages.

    ``data`` is the buffer itself, one dict for the life of the memtable:
    ``LSMStore.put`` writes it directly (a put is one Python frame),
    ``LSMStore.get`` reads it directly, and ``LSMStore.scan`` filters it
    unsorted.
    """

    def __init__(self) -> None:
        self.data: dict[Any, Any] = {}

    def __len__(self) -> int:
        return len(self.data)

    def put(self, key: Any, value: Any) -> None:
        self.data[key] = value

    def delete(self, key: Any) -> None:
        """Record a tombstone (even for keys never seen here)."""
        self.put(key, TOMBSTONE)

    def sorted_columns(self) -> tuple[list[Any], list[Any]]:
        """The keys in order and their values, tombstones included: the
        two columns of the flushed table."""
        keys = sorted(self.data)
        return keys, list(map(self.data.__getitem__, keys))

    def clear(self) -> None:
        self.data.clear()


__all__ = ["MemTable", "TOMBSTONE"]
