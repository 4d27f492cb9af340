"""Unit tests for leveled-compaction selection and merging."""

import pytest

from repro.apps.lsm.compaction import CompactionTask, LeveledCompaction
from repro.apps.lsm.memtable import TOMBSTONE
from repro.apps.lsm.sstable import SSTable


def table(keys, level, value="v", size_pages=1):
    keys = sorted(set(keys))
    return SSTable(
        keys=keys,
        values=[f"{value}{k}" for k in keys],
        level=level,
        size_pages=size_pages,
    )


def make_policy(**kwargs):
    defaults = dict(l0_limit=2, level0_pages=4, level_multiplier=10,
                    max_table_pages=4, entry_bytes=128, page_size=4096)
    defaults.update(kwargs)
    return LeveledCompaction(**defaults)


class TestPickTask:
    def test_no_pressure_no_task(self):
        policy = make_policy()
        levels = [[table([1], 0)], [], [], []]
        assert policy.pick_task(levels) is None

    def test_l0_count_triggers(self):
        policy = make_policy(l0_limit=2)
        levels = [[table([1], 0), table([2], 0)], [], []]
        task = policy.pick_task(levels)
        assert task is not None
        assert task.level == 0
        assert len(task.inputs_upper) == 2

    def test_l0_task_includes_overlapping_l1(self):
        policy = make_policy(l0_limit=2)
        l1_overlap = table([1, 5], 1)
        l1_clear = table([100, 200], 1)
        levels = [[table([1, 3], 0), table([2, 4], 0)], [l1_overlap, l1_clear], []]
        task = policy.pick_task(levels)
        assert l1_overlap in task.inputs_lower
        assert l1_clear not in task.inputs_lower

    def test_level_budget_overflow_triggers(self):
        policy = make_policy(level0_pages=2)
        levels = [[], [table([1], 1, size_pages=3)], [], []]
        task = policy.pick_task(levels)
        assert task is not None
        assert task.level == 1

    def test_budget_grows_by_multiplier(self):
        policy = make_policy(level0_pages=4, level_multiplier=10)
        assert policy.level_budget_pages(1) == 4
        assert policy.level_budget_pages(2) == 40
        assert policy.level_budget_pages(3) == 400
        with pytest.raises(ValueError):
            policy.level_budget_pages(0)

    def test_bottom_level_is_not_ranked(self):
        # It has no budget and nowhere to push to; ranked, its overflow
        # ratio would outbid the levels above it and nothing would compact.
        policy = make_policy(level0_pages=2, level_multiplier=2)
        l1 = table([1, 2], 1, size_pages=3)  # 1.5x its budget of 2
        bottom = table(range(10, 20), 2, size_pages=40)  # 10x a budget of 4
        task = policy.pick_task([[], [l1], [bottom]])
        assert task.level == 1 and task.inputs_upper == (l1,)
        assert policy.pick_task([[], [], [bottom]]) is None

    def test_picks_cheapest_overlap(self):
        policy = make_policy(level0_pages=1)
        cheap = table([1, 2], 1, size_pages=2)       # no overlap below
        costly = table([10, 20], 1, size_pages=2)    # overlaps a big L2 run
        l2 = table(list(range(10, 21)), 2, size_pages=8)
        levels = [[], [cheap, costly], [l2], []]
        task = policy.pick_task(levels)
        assert task.inputs_upper == (cheap,)
        assert task.inputs_lower == ()

    def test_cost_ties_go_to_the_first_table(self):
        policy = make_policy(level0_pages=1)
        first, second = table([1, 2], 1, size_pages=2), table([5, 6], 1, size_pages=2)
        task = policy.pick_task([[], [first, second], [], []])
        assert task.inputs_upper == (first,)

    def test_overlap_is_the_run_a_full_scan_finds(self):
        # Levels >= 1 are sorted and disjoint; ranges that only touch a
        # table's end key still overlap it.
        policy = make_policy()
        lower = [table([lo, lo + 4], 2) for lo in range(0, 100, 10)]
        levels = [[], [], lower]
        for lo in range(-3, 103):
            for hi in range(lo, lo + 25, 3):
                uppers = (table([lo], 1), table([hi], 1))
                found = policy._overlapping(levels, 2, uppers)
                assert found == tuple(t for t in lower if t.overlaps_range(lo, hi))
        assert policy._overlapping(levels, 3, uppers) == ()


class TestMerge:
    def test_newer_value_wins(self):
        policy = make_policy()
        old = SSTable(keys=[1], values=["old"], level=1, size_pages=1)
        new = SSTable(keys=[1], values=["new"], level=0, size_pages=1)
        task = CompactionTask(0, (new,), (old,))
        (out,) = policy.merge(task, bottom_level=False)
        assert out.entries == [(1, "new")]
        assert out.level == 1

    def test_l0_recency_by_table_id(self):
        policy = make_policy()
        first = SSTable(keys=[1], values=["first"], level=0, size_pages=1)
        second = SSTable(keys=[1], values=["second"], level=0, size_pages=1)
        task = CompactionTask(0, (first, second), ())
        (out,) = policy.merge(task, bottom_level=False)
        assert out.entries == [(1, "second")]

    def test_tombstones_kept_above_bottom(self):
        policy = make_policy()
        dead = SSTable(keys=[1], values=[TOMBSTONE], level=0, size_pages=1)
        task = CompactionTask(0, (dead,), ())
        (out,) = policy.merge(task, bottom_level=False)
        assert out.entries[0][1] is TOMBSTONE

    def test_tombstones_dropped_at_bottom(self):
        policy = make_policy()
        dead = SSTable(keys=[1, 2], values=[TOMBSTONE, "live"], level=0, size_pages=1)
        task = CompactionTask(0, (dead,), ())
        (out,) = policy.merge(task, bottom_level=True)
        assert out.entries == [(2, "live")]

    def test_all_tombstones_yield_no_output(self):
        policy = make_policy()
        dead = SSTable(keys=[1], values=[TOMBSTONE], level=0, size_pages=1)
        task = CompactionTask(0, (dead,), ())
        assert policy.merge(task, bottom_level=True) == []

    def test_bottom_merge_drops_shadowed_keys_and_keeps_columns_aligned(self):
        # 1 entry per output table: every surviving key must still sit
        # beside its own value after the tombstone filter and the split.
        policy = make_policy(max_table_pages=1, entry_bytes=4096)
        lower = table(range(6), 1, value="old")
        upper = SSTable(keys=[1, 4, 9], values=[TOMBSTONE, "new4", TOMBSTONE], level=0, size_pages=1)
        task = CompactionTask(0, (upper,), (lower,))
        kept = policy.merge(task, bottom_level=False)
        assert [out.entries for out in kept] == [
            [(0, "old0")], [(1, TOMBSTONE)], [(2, "old2")], [(3, "old3")],
            [(4, "new4")], [(5, "old5")], [(9, TOMBSTONE)],
        ]
        dropped = policy.merge(task, bottom_level=True)
        assert [out.entries for out in dropped] == [
            [(0, "old0")], [(2, "old2")], [(3, "old3")], [(4, "new4")], [(5, "old5")],
        ]
        assert all(out.size_pages == 1 and out.level == 1 for out in kept + dropped)

    def test_outputs_split_at_max_size(self):
        policy = make_policy(max_table_pages=1, entry_bytes=4096)  # 1 entry/page
        big = SSTable(keys=list(range(5)), values=list(range(5)), level=0, size_pages=5)
        task = CompactionTask(0, (big,), ())
        outs = policy.merge(task, bottom_level=False)
        assert len(outs) == 5
        keys = [k for out in outs for k, _ in out.entries]
        assert keys == list(range(5))

    def test_input_accounting(self):
        upper = table([1], 0, size_pages=2)
        lower = table([2], 1, size_pages=3)
        task = CompactionTask(0, (upper,), (lower,))
        assert task.input_pages == 5
        assert set(task.all_inputs) == {upper, lower}

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_policy(l0_limit=0)
        with pytest.raises(ValueError):
            make_policy(level_multiplier=1)
