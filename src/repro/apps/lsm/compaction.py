"""Leveled compaction.

RocksDB-style leveling: L0 holds whole memtable flushes (possibly
overlapping); every deeper level is a sorted, non-overlapping run of
tables with a size budget growing by ``level_multiplier``. When a level
exceeds budget, one table (plus overlapping L0 siblings for L0) merges
with the overlapping tables of the next level; inputs are deleted. This
rewrite cascade is the *application* write amplification of the E5
breakdown -- it exists on every interface; the paper's point is about the
extra device WA underneath it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Any

from repro.apps.lsm.memtable import TOMBSTONE
from repro.apps.lsm.sstable import SSTable, overlapping_run, size_in_pages

_size_pages = operator.attrgetter("size_pages")


@dataclass(frozen=True)
class CompactionTask:
    """One selected compaction: inputs from two adjacent levels."""

    level: int
    inputs_upper: tuple[SSTable, ...]
    inputs_lower: tuple[SSTable, ...]

    @property
    def all_inputs(self) -> tuple[SSTable, ...]:
        return self.inputs_upper + self.inputs_lower

    @property
    def input_pages(self) -> int:
        return sum(t.size_pages for t in self.all_inputs)


class LeveledCompaction:
    """Level budgets and compaction selection/merging.

    Parameters
    ----------
    l0_limit:
        Flush count at which L0 compacts into L1.
    level0_pages:
        Size budget of L1 in pages (L0 is counted in tables, not pages).
    level_multiplier:
        Budget growth per level (RocksDB default 10).
    max_table_pages:
        Output tables split at this size.
    entry_bytes / page_size:
        Encoding model for sizing merged outputs.
    """

    def __init__(
        self,
        l0_limit: int = 4,
        level0_pages: int = 256,
        level_multiplier: int = 10,
        max_table_pages: int = 64,
        entry_bytes: int = 128,
        page_size: int = 4096,
    ):
        if l0_limit < 1 or level_multiplier < 2 or max_table_pages < 1:
            raise ValueError("invalid compaction parameters")
        self.l0_limit = l0_limit
        self.level0_pages = level0_pages
        self.level_multiplier = level_multiplier
        self.max_table_pages = max_table_pages
        self.entry_bytes = entry_bytes
        self.page_size = page_size

    def level_budget_pages(self, level: int) -> int:
        """Size budget of ``level`` (levels >= 1)."""
        if level < 1:
            raise ValueError("budgets apply to levels >= 1")
        return self.level0_pages * self.level_multiplier ** (level - 1)

    def pick_task(self, levels: list[list[SSTable]]) -> CompactionTask | None:
        """Choose the most urgent compaction, or None if all within budget.

        L0 pressure (table count) takes priority, then the level with the
        highest budget overflow ratio. The bottom level has nowhere to
        push to and no budget (it absorbs overflow), so it is not ranked:
        ranked, its ratio would outbid and starve every level above it.
        """
        if levels and len(levels[0]) >= self.l0_limit:
            upper = tuple(levels[0])
            lower = self._overlapping(levels, 1, upper)
            return CompactionTask(0, upper, lower)

        worst_level = None
        worst_ratio = 1.0
        for level in range(1, len(levels) - 1):
            pages = sum(map(_size_pages, levels[level]))
            ratio = pages / self.level_budget_pages(level)
            if ratio > worst_ratio:
                worst_level, worst_ratio = level, ratio
        if worst_level is None:
            return None
        # Pick the table whose push-down rewrites the least data per page
        # of its own size (RocksDB's overlap-ratio heuristic), the first
        # such table on a tie. Both levels are sorted and disjoint, so each
        # table's overlapping run of the next level starts and ends no
        # earlier than its predecessor's: one walk prices them all, each
        # run's pages a difference of the next level's running sums.
        below = levels[worst_level + 1]
        before = [0, *itertools.accumulate(map(_size_pages, below))]
        end = len(below)
        lo = hi = 0
        best_cost = math.inf
        for table in levels[worst_level]:
            while lo < end and below[lo].max_key < table.min_key:
                lo += 1
            if hi < lo:
                hi = lo
            while hi < end and below[hi].min_key <= table.max_key:
                hi += 1
            cost = (before[hi] - before[lo]) / table.size_pages
            if cost < best_cost:
                best_cost, chosen, lower = cost, table, below[lo:hi]
        return CompactionTask(worst_level, (chosen,), tuple(lower))

    def _overlapping(
        self, levels: list[list[SSTable]], level: int, uppers: tuple[SSTable, ...]
    ) -> tuple[SSTable, ...]:
        if level >= len(levels):
            return ()
        lo = min(t.min_key for t in uppers)
        hi = max(t.max_key for t in uppers)
        return tuple(overlapping_run(levels[level], lo, hi))

    def merge(self, task: CompactionTask, bottom_level: bool) -> list[SSTable]:
        """Merge task inputs into output tables for ``task.level + 1``.

        Newest-wins conflict resolution: upper-level (and later-created)
        tables shadow lower ones. Tombstones are dropped only when the
        output lands at the bottom level (nothing deeper to shadow).
        """
        # Apply oldest data first so newer entries overwrite: the lower
        # level is always older than the upper; within the upper level
        # (relevant for L0), larger table_id means a more recent flush.
        merged: dict[Any, Any] = {}
        for table in task.inputs_lower:
            merged.update(zip(table.keys, table.values))
        for table in sorted(task.inputs_upper, key=lambda t: t.table_id):
            merged.update(zip(table.keys, table.values))
        # The two output columns; no (key, value) pair is ever built.
        keys = sorted(merged)
        values = list(map(merged.__getitem__, keys))
        if bottom_level and any(map(operator.is_, values, itertools.repeat(TOMBSTONE))):
            live = [v is not TOMBSTONE for v in values]
            keys = list(itertools.compress(keys, live))
            values = list(itertools.compress(values, live))
        # Split into output tables of bounded size.
        entries_per_table = max(
            self.max_table_pages * self.page_size // self.entry_bytes, 1
        )
        outputs: list[SSTable] = []
        for start in range(0, len(keys), entries_per_table):
            chunk = keys[start : start + entries_per_table]
            outputs.append(
                SSTable(
                    keys=chunk,
                    values=values[start : start + entries_per_table],
                    level=task.level + 1,
                    size_pages=size_in_pages(len(chunk), self.entry_bytes, self.page_size),
                )
            )
        return outputs


__all__ = ["CompactionTask", "LeveledCompaction"]
