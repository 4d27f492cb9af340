"""A leveled LSM-tree key-value store with pluggable storage backends.

The reproduction's RocksDB stand-in. The tree itself (memtable, sorted
runs, leveled compaction) is interface-agnostic; the backend decides how
immutable SSTable files meet flash:

- :class:`~repro.apps.lsm.backends.BlockFileBackend` allocates LBA extents
  on any block device -- on a conventional SSD the FTL sees interleaved,
  fragmented writes and pays GC (the block-interface tax).
- :class:`~repro.apps.lsm.backends.ZoneFileBackend` (ZenFS-like) appends
  SSTables into zones grouped by level, so whole zones die together at
  compaction and device WA stays near 1.
"""

from repro.apps.lsm.backends import BlockFileBackend, LsmBackend, ZoneFileBackend
from repro.apps.lsm.compaction import LeveledCompaction
from repro.apps.lsm.memtable import MemTable
from repro.apps.lsm.sstable import SSTable
from repro.apps.lsm.store import LSMConfig, LSMStore, put_uniform

__all__ = [
    "BlockFileBackend",
    "LeveledCompaction",
    "LSMConfig",
    "LSMStore",
    "LsmBackend",
    "MemTable",
    "SSTable",
    "ZoneFileBackend",
    "put_uniform",
]
