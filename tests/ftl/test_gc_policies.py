"""Tests for GC victim-selection policies."""

import numpy as np
import pytest

from repro.ftl.gc import CostBenefitPolicy, FifoPolicy, GreedyPolicy, make_policy


def select(policy, valid_map, seal_map=None, now=100, ppb=64):
    """Run ``policy.select`` the way the FTL calls it: candidates in the
    dict's order, per-block state as arrays indexed by block id."""
    seal_map = seal_map or {}
    size = max(valid_map, default=0) + 1
    valid_counts = np.zeros(size, dtype=np.int32)
    seal_times = np.zeros(size, dtype=np.int64)
    for block, valid in valid_map.items():
        valid_counts[block] = valid
        seal_times[block] = seal_map.get(block, 0)
    candidates = np.fromiter(valid_map, dtype=np.int64, count=len(valid_map))
    return policy.select(candidates, valid_counts, ppb, seal_times, now)


class TestGreedy:
    def test_picks_min_valid(self):
        assert select(GreedyPolicy(), {1: 30, 2: 5, 3: 20}) == 2

    def test_zero_valid_short_circuits(self):
        assert select(GreedyPolicy(), {1: 0, 2: 5}) == 1

    def test_no_candidates_rejected(self):
        with pytest.raises(ValueError):
            select(GreedyPolicy(), {})

    def test_tie_goes_to_first_candidate(self):
        # Blocks 7 and 5 tie; 7 comes first in candidate order.
        assert select(GreedyPolicy(), {7: 1, 2: 5, 5: 1}) == 7


class TestCostBenefit:
    def test_prefers_old_empty_blocks(self):
        policy = CostBenefitPolicy()
        # Block 1: young, nearly empty. Block 2: old, nearly empty.
        victim = select(
            policy,
            {1: 4, 2: 4},
            seal_map={1: 99, 2: 1},
            now=100,
        )
        assert victim == 2

    def test_age_can_beat_utilization(self):
        policy = CostBenefitPolicy()
        # Very old but half-full block beats a brand-new almost-empty one.
        victim = select(
            policy,
            {1: 2, 2: 32},
            seal_map={1: 100, 2: 1},
            now=101,
        )
        assert victim == 2

    def test_fully_valid_block_scores_lowest(self):
        policy = CostBenefitPolicy()
        victim = select(policy, {1: 64, 2: 63}, seal_map={1: 0, 2: 0}, now=10)
        assert victim == 2


class TestFifo:
    def test_reclaims_in_seal_order(self):
        policy = FifoPolicy()
        policy.notify_sealed(5, now=1)
        policy.notify_sealed(3, now=2)
        policy.notify_sealed(9, now=3)
        assert select(policy, {3: 10, 5: 50, 9: 0}) == 5

    def test_erased_block_forgotten(self):
        policy = FifoPolicy()
        policy.notify_sealed(5, now=1)
        policy.notify_sealed(3, now=2)
        policy.notify_erased(5)
        policy.notify_sealed(5, now=3)  # re-sealed later
        assert select(policy, {3: 10, 5: 10}) == 3

    def test_tie_goes_to_first_candidate(self):
        # Neither 8 nor 4 was sealed under this policy: both rank 0, and
        # 8 comes first in candidate order.
        policy = FifoPolicy()
        policy.notify_sealed(6, now=1)
        assert select(policy, {8: 10, 6: 0, 4: 10}) == 8


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("greedy", GreedyPolicy),
        ("cost-benefit", CostBenefitPolicy),
        ("fifo", FifoPolicy),
    ])
    def test_make_policy(self, name, cls):
        assert isinstance(make_policy(name), cls)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown GC policy"):
            make_policy("magic")
