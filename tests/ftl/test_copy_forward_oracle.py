"""``ConventionalFTL._copy_forward`` against the page loop it replaced.

Two identical FTLs are put in the same hand-built state -- a sealed
victim with some pages invalidated, each GC stream's destination block
filled to a drawn offset (absent, partial or full, so that one call can
cross a block boundary on several streams), the free pool cut short --
and one side relocates the victim with the run-based routine, the other
with ``tests/oracle/scalar_copy_forward.py``. Everything either routine
touches must come out equal, including what a ``GCStuckError`` raised in
the middle of the call leaves behind.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.ftl.ftl import ConventionalFTL, FTLConfig, GCStuckError
from tests.ftl.test_batch_parity import full_state
from tests.oracle.scalar_copy_forward import copy_forward

PPB = 64
GEOMETRY = FlashGeometry(
    page_size=512, pages_per_block=PPB, blocks_per_plane=4, planes_per_channel=2, channels=2
)


def build(k, invalid, fills, free_blocks, cursor):
    """An FTL whose first host block is a sealed victim; returns ``(ftl, sources)``."""
    nand = NandArray(GEOMETRY, store_data=True)
    ftl = ConventionalFTL(GEOMETRY, FTLConfig(op_ratio=0.2, gc_streams=k), nand=nand)
    for lpn in range(PPB):
        ftl.write(lpn, auto_gc=False)
    victim = ftl._active[0]
    # Overwrites land in the next host block; the first one seals the victim.
    for lpn in sorted(invalid):
        ftl.write(lpn, auto_gc=False)
    assert victim in ftl.sealed_blocks
    for stream, fill in enumerate(fills[:k]):
        if fill is None:
            continue
        ftl._gc_active[stream] = ftl._take_free_block()
        if fill:
            nand.program_run(ftl._gc_active[stream], fill, "host")
    for page in range(GEOMETRY.total_pages):
        if nand.is_programmed(page):
            nand._data[page] = ("payload", page)
    ftl._gc_cursor = cursor
    del ftl._free[free_blocks:]
    return ftl, ftl.map.valid_pages_array(victim)


def observe(ftl):
    nand = ftl.nand
    return {
        **full_state(ftl),
        "oob_lpn": ftl._oob_lpn.tolist(),
        "oob_serial": ftl._oob_serial.tolist(),
        "program_serial": ftl._program_serial,
        "payloads": dict(nand._data),
    }


def relocate(copy, ftl, sources, with_ops, uses_channel):
    """Run one relocation; returns ``(count or 'stuck', ops)``."""
    ops = [] if with_ops else None
    try:
        return copy(ftl, sources, ops, "gc", uses_channel), ops
    except GCStuckError:
        return "stuck", ops


fill = st.one_of(st.none(), st.integers(0, PPB), st.integers(PPB - 12, PPB))


@settings(max_examples=300, deadline=None)
@given(
    k=st.sampled_from([1, 2, 4]),
    invalid=st.sets(st.integers(0, PPB - 1), min_size=1, max_size=PPB),
    fills=st.lists(fill, min_size=4, max_size=4),
    free_blocks=st.integers(0, 6),
    cursor=st.integers(0, 7),
    with_ops=st.booleans(),
    uses_channel=st.booleans(),
)
# Four streams all cross a block boundary inside one call, at four different sources.
@example(4, {0}, [60, 61, 62, 64], 6, 3, True, False)
# Two of them cross, and the second finds the free pool empty.
@example(4, {0, 1}, [63, None, 20, 58], 1, 0, True, True)
def test_matches_page_loop(k, invalid, fills, free_blocks, cursor, with_ops, uses_channel):
    scalar, sources = build(k, invalid, fills, free_blocks, cursor)
    runs, _ = build(k, invalid, fills, free_blocks, cursor)
    assert len(sources) == PPB - len(invalid)

    expected = relocate(copy_forward, scalar, sources.tolist(), with_ops, uses_channel)
    got = relocate(ConventionalFTL._copy_forward, runs, sources, with_ops, uses_channel)

    assert got == expected
    assert observe(runs) == observe(scalar)


def test_examples_cross_a_boundary_on_several_streams():
    """The pinned examples above do what their comments say."""
    ftl, sources = build(4, {0}, [60, 61, 62, 64], 6, 3)
    sealed = len(ftl.sealed_blocks)
    assert ftl._copy_forward(sources, None, "gc") == PPB - 1
    assert len(ftl.sealed_blocks) == sealed + 4

    ftl, sources = build(4, {0, 1}, [63, None, 20, 58], 1, 0)
    sealed = len(ftl.sealed_blocks)
    with pytest.raises(GCStuckError):
        ftl._copy_forward(sources, None, "gc")
    # Stream 1 took the only free block at source 1; stream 0 sealed its
    # full block at source 4 and found none.
    assert len(ftl.sealed_blocks) == sealed + 1
    assert ftl.free_block_count == 0
    assert 0 < ftl.nand.counters.count("copy", "gc") < len(sources)
