"""The in-memory write buffer of the LSM tree."""

from __future__ import annotations

from typing import Any

#: Sentinel distinguishing a tombstone from "key absent".
TOMBSTONE = object()


class MemTable:
    """Mutable sorted buffer of recent writes.

    Keys are arbitrary orderable values; values are opaque. Deletes insert
    tombstones so the absence can shadow older on-disk versions. Size is
    tracked in approximate encoded bytes so flush thresholds mirror
    on-flash footprint.
    """

    def __init__(self, entry_overhead_bytes: int = 24):
        self._data: dict[Any, Any] = {}
        self._bytes = 0
        self.entry_overhead_bytes = entry_overhead_bytes

    def __len__(self) -> int:
        return len(self._data)

    @property
    def approximate_bytes(self) -> int:
        return self._bytes

    def _entry_size(self, key: Any, value: Any) -> int:
        key_size = len(key) if isinstance(key, (str, bytes)) else 8
        if value is TOMBSTONE or value is None:
            value_size = 0
        elif isinstance(value, (str, bytes)):
            value_size = len(value)
        else:
            value_size = 8
        return key_size + value_size + self.entry_overhead_bytes

    def put(self, key: Any, value: Any) -> None:
        if key in self._data:
            self._bytes -= self._entry_size(key, self._data[key])
        self._data[key] = value
        self._bytes += self._entry_size(key, value)

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
        self._bytes = 0


__all__ = ["MemTable", "TOMBSTONE"]
