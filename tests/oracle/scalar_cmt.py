"""Scalar reference for the CMT kernel in ``repro.ftl.mapping``.

One slot at a time, over the same slot arrays the kernel takes -- the
loop ``cmt_evict_batch`` stands in for.
"""


def cmt_evict_loop(slot_tvpn, slot_dirty, slot_stamp):
    """Walk the cache oldest stamp first; clean and collect the dirty tvpns."""
    out = []
    for slot in sorted(range(len(slot_stamp)), key=slot_stamp.__getitem__):
        if slot_tvpn[slot] >= 0 and slot_dirty[slot] != 0:
            out.append(int(slot_tvpn[slot]))
            slot_dirty[slot] = 0
    return out
