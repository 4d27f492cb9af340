"""Wear-leveling policies: selection math, migration, spare accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.geometry import FlashGeometry
from repro.ftl.ftl import ConventionalFTL, FTLConfig
from repro.ftl.mapping import SMALL_BATCH
from repro.ftl.wearlevel import (
    WL_POLICIES,
    DynamicWearLevel,
    NoWearLevel,
    StaticWearLevel,
    make_wearlevel,
    spare_report,
)
from repro.workloads.synthetic import hot_cold_stream


def tiny_geometry():
    return FlashGeometry(
        page_size=512,
        pages_per_block=8,
        blocks_per_plane=4,
        planes_per_channel=2,
        channels=2,
    )


def make_ftl(wl_policy=None, op_ratio=0.2):
    return ConventionalFTL(
        tiny_geometry(),
        FTLConfig(
            op_ratio=op_ratio,
            gc_low_watermark=1,
            gc_high_watermark=2,
            wl_policy=wl_policy,
        ),
    )


def run_hot_cold(wl_policy, ops_multiple=8, seed=0):
    ftl = make_ftl(wl_policy)
    n = ftl.logical_pages
    for lpn in range(n):
        ftl.write(lpn)
    for lpn, _ in hot_cold_stream(n, ops_multiple * n, seed=seed):
        ftl.write(lpn)
    return ftl


class TestPolicySelection:
    def test_registry_is_complete(self):
        assert WL_POLICIES == ("dynamic", "none", "static")

    def test_make_by_name(self):
        assert isinstance(make_wearlevel("none"), NoWearLevel)
        assert isinstance(make_wearlevel("dynamic"), DynamicWearLevel)
        assert isinstance(make_wearlevel("static"), StaticWearLevel)

    def test_none_means_default_dynamic(self):
        assert isinstance(make_wearlevel(None), DynamicWearLevel)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown wear-level policy"):
            make_wearlevel("round-robin")

    def test_none_policy_takes_pool_head(self):
        free = np.array([9, 3, 7])
        wear = np.array([0, 5, 0, 0, 0, 0, 0, 2, 0, 9])
        assert NoWearLevel().select(free, wear, planes=2, preferred=0) == 0

    def test_dynamic_picks_least_worn(self):
        free = np.array([9, 3, 7])
        wear = np.array([0, 0, 0, 4, 0, 0, 0, 1, 0, 9])
        # wear: block 9 -> 9, block 3 -> 4, block 7 -> 1
        policy = DynamicWearLevel()
        assert policy.select(free, wear, planes=2, preferred=0) == 2

    def test_dynamic_tie_breaks_by_plane_distance(self):
        free = np.array([4, 5])
        wear = np.zeros(8, dtype=np.int64)
        policy = DynamicWearLevel()
        # Equal wear: the block on the preferred plane wins.
        assert policy.select(free, wear, planes=2, preferred=0) == 0
        assert policy.select(free, wear, planes=2, preferred=1) == 1

    def test_static_threshold_validated(self):
        with pytest.raises(ValueError, match="threshold"):
            StaticWearLevel(threshold=0)

    def test_static_migration_trigger(self):
        policy = StaticWearLevel(threshold=4)
        assert not policy.wants_migration(3)
        assert policy.wants_migration(4)
        assert not DynamicWearLevel().wants_migration(100)

    def test_migrates_flag(self):
        assert StaticWearLevel().migrates
        assert not DynamicWearLevel().migrates
        assert not NoWearLevel().migrates


def array_choice(free, wear, planes, preferred):
    """The allocation key's first minimum over ``free``, the way numpy takes it."""
    blocks = np.asarray(free, dtype=np.int64)
    key = np.asarray(wear)[blocks] * planes + (blocks - preferred) % planes
    return int(key.argmin())


class TestSmallPoolChoice:
    """A pool of at most ``SMALL_BATCH`` blocks is chosen from in Python.

    Pools of 1 to 40 blocks straddle the threshold, so the loop and the
    array path are both held to numpy's first minimum of the same key.
    """

    PLANES = 4
    BLOCKS = 64

    @given(
        pool=st.lists(
            st.integers(0, BLOCKS - 1), min_size=1, max_size=SMALL_BATCH + 24, unique=True
        ),
        wear=st.lists(st.integers(0, 2), min_size=BLOCKS, max_size=BLOCKS),
        plane_wear=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_the_loop_takes_the_arrays_first_minimum(self, pool, wear, plane_wear):
        if plane_wear:
            # Every block wears as its plane's first block: any two pool
            # blocks on one plane tie on (wear, plane), so only pool order
            # can break the tie.
            wear = [wear[block % self.PLANES] for block in range(self.BLOCKS)]
        view = memoryview(np.asarray(wear, dtype=np.int64))
        for policy in (DynamicWearLevel(), StaticWearLevel()):
            for preferred in range(self.PLANES):
                assert policy.select(pool, view, self.PLANES, preferred) == array_choice(
                    pool, view, self.PLANES, preferred
                )
        assert NoWearLevel().select(pool, view, self.PLANES, 0) == 0

    def test_a_tie_goes_to_the_pool_head_not_the_lowest_id(self):
        wear = memoryview(np.zeros(16, dtype=np.int64))
        # Blocks 9 and 1 share plane 1 and wear 0; 9 comes first in the pool.
        assert DynamicWearLevel().select([9, 1], wear, planes=4, preferred=1) == 0


class TestConfigPlumbing:
    def test_bad_policy_rejected_at_config_time(self):
        with pytest.raises(ValueError, match="wear-level"):
            FTLConfig(wl_policy="bogus")

    def test_ftl_carries_selected_policy(self):
        assert make_ftl("static").wearlevel.name == "static"
        assert make_ftl("none").wearlevel.name == "none"
        assert make_ftl().wearlevel.name == "dynamic"

    def test_default_matches_explicit_dynamic(self):
        """wl_policy=None reproduces the historical allocation exactly."""
        default = run_hot_cold(None, ops_multiple=4)
        explicit = run_hot_cold("dynamic", ops_multiple=4)
        assert np.array_equal(
            default.nand.wear.erase_counts, explicit.nand.wear.erase_counts
        )
        assert default.nand.counters == explicit.nand.counters


class TestWearOutcomes:
    def test_policy_changes_erase_spread(self):
        spreads = {p: run_hot_cold(p).wear_spread() for p in WL_POLICIES}
        assert len(set(spreads.values())) > 1, spreads

    def test_static_caps_spread_under_hot_cold(self):
        # Cold blocks pin their erase count at ~0 unless migrated: the
        # static policy must land a tighter spread than no leveling.
        static = run_hot_cold("static").wear_spread()
        none = run_hot_cold("none").wear_spread()
        assert static < none, (static, none)

    def test_seeded_runs_are_deterministic(self):
        for policy in WL_POLICIES:
            a = run_hot_cold(policy, ops_multiple=4, seed=3)
            b = run_hot_cold(policy, ops_multiple=4, seed=3)
            assert np.array_equal(
                a.nand.wear.erase_counts, b.nand.wear.erase_counts
            )
            assert a.stats.gc_runs == b.stats.gc_runs
            assert np.array_equal(a.map.l2p, b.map.l2p)


class TestSpareReport:
    def test_report_shape_and_policy(self):
        ftl = run_hot_cold("static", ops_multiple=2)
        report = spare_report(ftl)
        assert report["wl_policy"] == "static"
        assert report["spare_blocks"] > 0
        assert report["blocks_retired"] == 0
        assert report["spare_blocks_remaining"] == report["spare_blocks"]
        assert report["erase_spread"] >= 0
        assert report["erase_mean"] > 0

    def test_retirement_draws_down_spare_pool(self):
        ftl = make_ftl()
        before = spare_report(ftl)
        assert before["blocks_retired"] == 0
        # A grown bad block consumes the same margin wear leveling
        # spreads load over.
        ftl.nand.wear.mark_bad(0)
        after = spare_report(ftl)
        assert after["blocks_retired"] == 1
        assert (
            after["spare_blocks_remaining"]
            == before["spare_blocks_remaining"] - 1
        )
