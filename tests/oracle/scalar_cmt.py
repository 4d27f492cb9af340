"""Scalar references for the CMT kernels in ``repro.sim.compiled``.

One group, one slot at a time, over the same slot arrays the kernels
take -- the loops the array kernels stand in for.
"""


def cmt_probe_loop(tvpn_slot, slot_dirty, slot_stamp, tvpns, counts, start, stamp):
    """Consume the leading hit groups from ``start``, one at a time.

    Each hit dirties its slot and lands it on the group's last stamp
    (one access plus ``count - 1`` same-page hits); the walk stops at the
    first group whose translation page is not cached. Returns
    ``(groups_consumed, next_stamp)``.
    """
    consumed = 0
    while start + consumed < tvpns.shape[0]:
        slot = tvpn_slot[tvpns[start + consumed]]
        if slot < 0:
            break
        k = int(counts[start + consumed])
        slot_dirty[slot] = 1
        slot_stamp[slot] = stamp + k - 1
        stamp += k
        consumed += 1
    return consumed, stamp


def cmt_evict_loop(slot_tvpn, slot_dirty, slot_stamp):
    """Walk the cache oldest stamp first; clean and collect the dirty tvpns."""
    out = []
    for slot in sorted(range(len(slot_stamp)), key=slot_stamp.__getitem__):
        if slot_tvpn[slot] >= 0 and slot_dirty[slot] != 0:
            out.append(int(slot_tvpn[slot]))
            slot_dirty[slot] = 0
    return out
