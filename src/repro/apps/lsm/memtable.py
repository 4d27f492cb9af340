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
    """

    def __init__(self) -> None:
        self._data: dict[Any, Any] = {}

    def __len__(self) -> int:
        return len(self._data)

    def put(self, key: Any, value: Any) -> None:
        self._data[key] = value

    def delete(self, key: Any) -> None:
        """Record a tombstone (even for keys never seen here)."""
        self.put(key, TOMBSTONE)

    def get(self, key: Any) -> tuple[bool, Any]:
        """Return (present, value); value may be TOMBSTONE."""
        if key in self._data:
            return True, self._data[key]
        return False, None

    def sorted_items(self) -> list[tuple[Any, Any]]:
        """Entries in key order, tombstones included (flush input)."""
        keys = sorted(self._data)
        return list(zip(keys, map(self._data.__getitem__, keys)))

    def clear(self) -> None:
        self._data.clear()


__all__ = ["MemTable", "TOMBSTONE"]
