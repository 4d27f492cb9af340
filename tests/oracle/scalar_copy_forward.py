"""Scalar reference for ``ConventionalFTL._copy_forward``.

These are ``ConventionalFTL._gc_destination`` and ``_copy_forward`` as
they stood before relocation moved in runs (commit b057f0e), kept
verbatim with ``self`` spelled ``ftl``: one ``NandArray.copy_page``, one
``FullPageMap.relocate`` and one OOB note per page, the destination
stream chosen per page from ``_gc_cursor``. They pin what the run-based
routine must reproduce -- which page lands where, the order of seals and
free-block takes, the state a mid-call ``GCStuckError`` leaves behind,
and the per-page ``FlashOp`` list. Since then both take the cause their
copies are booked under, and the copy count is the NAND's alone.
"""

import numpy as np

from repro.flash.ops import FlashOp, OpKind


def gc_destination(ftl) -> int:
    stream = ftl._gc_cursor % ftl.config.gc_streams
    ftl._gc_cursor += 1
    block = ftl._gc_active[stream]
    if block is not None and not ftl.nand.is_block_full(block):
        return block
    if block is not None:
        ftl._seal(block)
    ftl._gc_active[stream] = ftl._take_free_block()
    return ftl._gc_active[stream]


def copy_forward(ftl, sources, ops, cause, uses_channel=False) -> int:
    moved_lpns: list[int] = []
    for src in sources:
        dst_block = gc_destination(ftl)
        offset = ftl.nand.write_offset(dst_block)
        dst_page = ftl.geometry.first_page_of_block(dst_block) + offset
        latency = ftl.nand.copy_page(src, dst_page, cause)
        lpn = ftl.map.relocate(src, dst_page)
        ftl._oob_lpn_v[dst_page] = lpn
        ftl._oob_serial_v[dst_page] = ftl._program_serial
        ftl._program_serial += 1
        moved_lpns.append(lpn)
        if ops is not None:
            ops.append(
                FlashOp(OpKind.COPY, dst_block, dst_page, latency, uses_channel=uses_channel)
            )
    if moved_lpns:
        ftl._note_relocated(np.asarray(moved_lpns, dtype=np.int64))
    return len(moved_lpns)
