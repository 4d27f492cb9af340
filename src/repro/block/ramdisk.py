"""An ideal block device with no flash underneath.

Used as a control in experiments (what would the application do on a
device with WA identically 1 and uniform latency?) and as a cheap backing
store in unit tests of code written against :class:`BlockDevice`.
"""

from __future__ import annotations

from typing import Any

from repro.block.interface import check_extent, check_lba
from repro.obs.frame import OpCounter


class RamDisk:
    """Flat in-memory block device; stores payload objects sparsely."""

    def __init__(self, num_blocks: int, block_size: int = 4096):
        if num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self._num_blocks = num_blocks
        self._block_size = block_size
        self._data: dict[int, Any] = {}
        self.counters = OpCounter()

    @property
    def block_size(self) -> int:
        return self._block_size

    @property
    def num_blocks(self) -> int:
        return self._num_blocks

    def read_block(self, lba: int) -> Any:
        check_lba(self, lba)
        self.counters.note("read", "host")
        return self._data.get(lba)

    def write_block(self, lba: int, data: Any = None) -> None:
        check_lba(self, lba)
        self.counters.note("program", "host")
        self._data[lba] = data

    def write_blocks(self, start: int, count: int) -> None:
        check_extent(self, start, count)
        for lba in range(start, start + count):
            self.write_block(lba)

    def trim_block(self, lba: int) -> None:
        check_lba(self, lba)
        self._data.pop(lba, None)


__all__ = ["RamDisk"]
