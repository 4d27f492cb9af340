"""Property tests: batched FTL writes are state-identical to scalar writes.

``write_pages`` promises to be semantically equivalent to a scalar
``write`` loop -- same mapping tables, GC victim sequence, counters, and
trace aggregates -- while doing the flash work in vectorized runs. These
tests drive both paths with identical workloads (including duplicate
LPNs, which exercise in-batch invalidation) across every GC policy and
compare the complete observable state.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.geometry import FlashGeometry
from repro.ftl.ftl import ConventionalFTL, FTLConfig


def tiny_geometry():
    # 16 blocks of 8 pages: small enough for hypothesis, large enough
    # that random overwrites trigger foreground GC constantly.
    return FlashGeometry(
        page_size=512,
        pages_per_block=8,
        blocks_per_plane=4,
        planes_per_channel=2,
        channels=2,
    )


def make_ftl(policy: str) -> ConventionalFTL:
    return ConventionalFTL(
        tiny_geometry(),
        FTLConfig(
            op_ratio=0.2, gc_policy=policy, gc_low_watermark=1, gc_high_watermark=2
        ),
    )


LOGICAL = make_ftl("greedy").logical_pages


def full_state(ftl: ConventionalFTL) -> dict:
    """Every observable the batched path promises to keep identical."""
    return {
        "l2p": ftl.map.l2p.tolist(),
        "p2l": ftl.map.p2l.tolist(),
        "valid_counts": ftl.map.valid_counts.tolist(),
        "mapped_pages": ftl.map.mapped_pages,
        "clock": ftl._clock,
        "free": list(ftl._free),
        "sealed": sorted(ftl.sealed_blocks),
        "seal_times": {b: ftl._seal_time_arr_v[b] for b in ftl.sealed_blocks},
        "seal_time_arr": ftl._seal_time_arr.tolist(),
        "active": dict(ftl._active),
        "gc_active": dict(ftl._gc_active),
        "plane_cursor": ftl._plane_cursor,
        "gc_cursor": ftl._gc_cursor,
        "stats": dataclasses.asdict(ftl.stats),
        "write_offsets": [
            ftl.nand.write_offset(b) for b in range(ftl.geometry.total_blocks)
        ],
        "erase_counts": ftl.nand.wear.erase_counts.tolist(),
        # Counter totals derive from published trace events, so equality
        # here proves the batched aggregate events carry the same totals
        # as the scalar per-page stream.
        "nand_counters": dataclasses.asdict(ftl.nand.counters),
    }


lpn_batches = st.lists(
    st.lists(st.integers(min_value=0, max_value=LOGICAL - 1), min_size=1, max_size=60),
    min_size=1,
    max_size=6,
)


class TestWritePagesParity:
    @settings(max_examples=30, deadline=None)
    @given(
        policy=st.sampled_from(["greedy", "cost-benefit", "fifo"]),
        batches=lpn_batches,
    )
    def test_batched_equals_scalar(self, policy, batches):
        scalar = make_ftl(policy)
        batched = make_ftl(policy)
        for lpns in batches:
            for lpn in lpns:
                scalar.write(lpn)
            batched.write_pages(np.asarray(lpns, dtype=np.int64))
        assert full_state(scalar) == full_state(batched)
        scalar.check_invariants()
        batched.check_invariants()

    @settings(max_examples=20, deadline=None)
    @given(
        lpns=st.lists(
            st.integers(min_value=0, max_value=LOGICAL - 1), min_size=2, max_size=120
        ),
        data=st.data(),
    )
    def test_chunking_is_invariant(self, lpns, data):
        """Splitting one batch into arbitrary sub-batches changes nothing."""
        split = data.draw(st.integers(min_value=1, max_value=len(lpns) - 1))
        one = make_ftl("greedy")
        two = make_ftl("greedy")
        arr = np.asarray(lpns, dtype=np.int64)
        one.write_pages(arr)
        two.write_pages(arr[:split])
        two.write_pages(arr[split:])
        assert full_state(one) == full_state(two)

    def test_duplicate_lpns_in_one_batch(self):
        """Later duplicates invalidate earlier ones, exactly like scalar."""
        lpns = [3, 3, 3, 7, 7, 3, 0, 0, 0, 0]
        scalar = make_ftl("greedy")
        batched = make_ftl("greedy")
        for lpn in lpns:
            scalar.write(lpn)
        batched.write_pages(np.asarray(lpns, dtype=np.int64))
        assert full_state(scalar) == full_state(batched)
        assert batched.map.mapped_pages == 3

    def test_steady_state_wa_matches(self):
        """A GC-heavy fill/overwrite run agrees on WA and GC accounting."""
        rng = np.random.default_rng(7)
        overwrites = rng.integers(0, LOGICAL, size=4 * LOGICAL, dtype=np.int64)
        scalar = make_ftl("greedy")
        batched = make_ftl("greedy")
        for lpn in range(LOGICAL):
            scalar.write(lpn)
        for lpn in overwrites.tolist():
            scalar.write(lpn)
        batched.write_pages(np.arange(LOGICAL, dtype=np.int64))
        batched.write_pages(overwrites)
        assert full_state(scalar) == full_state(batched)
        assert scalar.stats.gc_runs > 0

    def test_empty_batch_is_a_noop(self):
        ftl = make_ftl("greedy")
        before = full_state(ftl)
        assert ftl.write_pages(np.array([], dtype=np.int64)) == 0
        assert full_state(ftl) == before

    def test_out_of_range_batch_rejected(self):
        ftl = make_ftl("greedy")
        with pytest.raises(IndexError):
            ftl.write_pages(np.array([0, LOGICAL], dtype=np.int64))
        with pytest.raises(IndexError):
            ftl.write_pages(np.array([-1], dtype=np.int64))
        with pytest.raises(ValueError):
            ftl.write_pages(np.array([0], dtype=np.int64), stream=5)
