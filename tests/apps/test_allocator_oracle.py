"""The in-place ``ExtentAllocator`` against its scalar reference.

One hypothesis sequence of allocate/free drives both allocators; after
every step the returned extents, the free list, the cursor, the running
free count and (for ``aged``) the generator state must be equal, and the
fast allocator must pass its own ``check_invariants``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.lsm.backends import AllocationError, ExtentAllocator
from tests.oracle.scalar_allocator import ScalarExtentAllocator

TOTAL = 40

# ("alloc", length) or ("free", which held allocation, how many of its extents).
steps = st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(1, 12), st.just(0)),
        st.tuples(st.just("free"), st.integers(0, 1 << 16), st.integers(0, 1 << 16)),
    ),
    max_size=80,
)


def assert_same(fast: ExtentAllocator, slow: ScalarExtentAllocator) -> None:
    fast.check_invariants()
    assert fast.free_extents == slow._free
    assert fast._cursor == slow._cursor
    assert fast.free_blocks == slow.free_blocks


@settings(max_examples=120, deadline=None)
@given(
    strategy=st.sampled_from(["first-fit", "next-fit", "aged"]),
    seed=st.integers(0, 3),
    holes=st.sets(st.integers(0, TOTAL - 1)),
    ops=steps,
)
def test_matches_scalar_allocator(strategy, seed, holes, ops):
    fast = ExtentAllocator(TOTAL, strategy, rng=np.random.default_rng(seed))
    slow = ScalarExtentAllocator(TOTAL, strategy, rng=np.random.default_rng(seed))
    # Start fragmented: fill the space block by block, punch the drawn holes.
    held: list[list] = []
    for _ in range(TOTAL):
        held.append(fast.allocate(1))
        assert held[-1] == slow.allocate(1)
    for file in [f for f in held if f[0].start in holes]:
        held.remove(file)
        fast.free(file)
        slow.free(file)
    assert_same(fast, slow)
    for kind, a, b in ops:
        if kind == "alloc":
            if a > slow.free_blocks:
                with pytest.raises(AllocationError):
                    fast.allocate(a)
                continue
            got = fast.allocate(a)
            assert got == slow.allocate(a)
            held.append(got)
        elif held:
            # Free a whole file, or only its first few extents (the rest
            # stay held), so freed runs land beside and inside live ones.
            extents = held.pop(a % len(held))
            cut = b % len(extents) + 1
            fast.free(extents[:cut])
            slow.free(extents[:cut])
            if extents[cut:]:
                held.append(extents[cut:])
        assert_same(fast, slow)
    # Equal generator state: the next draw agrees.
    assert fast.rng.integers(1 << 30) == slow.rng.integers(1 << 30)


@pytest.mark.parametrize("strategy", ["first-fit", "next-fit", "aged"])
def test_wal_like_churn_matches(strategy):
    """The E5 shape: many one-page allocations between multi-extent files."""
    fast = ExtentAllocator(256, strategy)
    slow = ScalarExtentAllocator(256, strategy)
    rng = np.random.default_rng(7)
    files: list[list] = []
    for step in range(600):
        length = 1 if step % 3 else int(rng.integers(4, 40))
        if length > slow.free_blocks or (files and rng.random() < 0.3):
            extents = files.pop(int(rng.integers(len(files))))
            fast.free(extents)
            slow.free(extents)
        else:
            got = fast.allocate(length)
            assert got == slow.allocate(length)
            files.append(got)
        assert_same(fast, slow)
    assert max(len(f) for f in files) > 1  # fragmentation was reached


def test_double_free_leaves_count_alone():
    alloc = ExtentAllocator(32)
    extents = alloc.allocate(8)
    alloc.free(extents)
    with pytest.raises(ValueError, match="double free"):
        alloc.free(extents)
    assert alloc.free_blocks == 32 == sum(e.length for e in alloc.free_extents)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda a: a._ends.pop(),  # columns of different lengths
        lambda a: a._starts.__setitem__(1, a._ends[1]),  # an empty extent
        lambda a: a._ends.__setitem__(0, a._starts[1]),  # two extents touch
        lambda a: a._starts.reverse(),  # out of order
        lambda a: setattr(a, "free_blocks", a.free_blocks + 1),  # count drifted
        lambda a: setattr(a, "_cursor", a.total_blocks),  # cursor out of range
    ],
)
def test_check_invariants_catches(corrupt):
    alloc = ExtentAllocator(32, "first-fit")
    held = [alloc.allocate(4) for _ in range(4)]
    alloc.free(held[0] + held[2])  # free list [0..4), [8..12), [16..32)
    alloc.check_invariants()
    corrupt(alloc)
    with pytest.raises(AssertionError):
        alloc.check_invariants()
