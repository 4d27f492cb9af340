"""Array kernels for the batch paths' mapping-table and CMT updates.

Each function mutates the caller's numpy arrays in place, with no
per-page Python work:

- ``map_batch_apply`` / ``relocate_run_apply`` are what
  :class:`repro.ftl.mapping.FullPageMap` runs for a host write chunk and
  for a GC copy-forward run;
- ``cmt_evict_batch`` is what :class:`repro.ftl.mapping.TranslationStore`
  runs to pick the dirty pages a flush writes back.

Every kernel leaves the arrays exactly as the scalar method it stands in
for would (``map`` / ``relocate`` per page, an LRU-order walk of the
cache); ``tests/sim/test_compiled_parity.py``
checks that against scalar references over random sequences.
"""

from __future__ import annotations

import numpy as np

#: Sentinel for an unmapped logical/physical page. Mirrors
#: :data:`repro.ftl.mapping.UNMAPPED`; kernels cannot import the mapping
#: module (they sit below it) so the value is pinned here and checked by
#: the parity suite.
UNMAPPED = -1


# -- Mapping-table appliers -----------------------------------------------------
#
# The appliers mutate the FullPageMap arrays (l2p, p2l, valid_counts) in
# place. Contracts match FullPageMap.map_batch / relocate_run:
# destinations are freshly-programmed pages within ONE erasure block.


def map_batch_apply(l2p, p2l, valid_counts, lpns, ppns, block, ppb):
    """Bind ``lpns[i] -> ppns[i]`` in scalar order; returns mapped-page delta.

    All ``ppns`` must be unmapped, freshly-programmed pages inside
    erasure block ``block``. In-batch duplicate lpns resolve exactly as a
    scalar loop would (later occurrences supersede earlier ones).
    """
    n = lpns.shape[0]
    rev_unique, rev_first = np.unique(lpns[::-1], return_index=True)
    survivor_idx = n - 1 - rev_first
    final_ppns = ppns[survivor_idx]
    prev = l2p[rev_unique]
    remapped = prev != UNMAPPED
    prev_ppns = prev[remapped]
    if prev_ppns.size:
        p2l[prev_ppns] = UNMAPPED
        np.subtract.at(valid_counts, prev_ppns // ppb, 1)
        if valid_counts[prev_ppns // ppb].min() < 0:
            raise ValueError("valid count went negative in map batch")
    l2p[rev_unique] = final_ppns
    p2l[final_ppns] = rev_unique
    valid_counts[block] += rev_unique.size
    return int(rev_unique.size - np.count_nonzero(remapped))


def relocate_run_apply(l2p, p2l, valid_counts, src_pages, dst_first, src_block, dst_block):
    """GC copy-forward applier: move valid bindings onto a contiguous run.

    ``src_pages`` must be valid, distinct pages of ``src_block``;
    destinations are the fresh run ``dst_first .. dst_first+n`` inside
    ``dst_block``. Mirrors ``FullPageMap.relocate`` x n exactly.
    """
    n = src_pages.shape[0]
    lpns = p2l[src_pages]
    if lpns.size and int(lpns.min()) == UNMAPPED:
        raise ValueError("relocate of invalid physical page")
    p2l[src_pages] = UNMAPPED
    dst = np.arange(dst_first, dst_first + n, dtype=np.int64)
    l2p[lpns] = dst
    p2l[dst_first : dst_first + n] = lpns
    valid_counts[src_block] -= n
    valid_counts[dst_block] += n


# -- CMT (cached mapping table) kernels -----------------------------------------
#
# The DFTL's CMT is slot arrays (tvpn -> slot, slot -> tvpn/dirty/stamp)
# with a monotonically-stamped LRU: every insert and every hit assigns
# the next stamp, so "least recently used" is exactly "minimum stamp" --
# the array twin of an OrderedDict with move_to_end on hit. The kernel
# below is the flush's batch pass over those arrays; the scalar
# hit/miss/evict machinery stays in
# :class:`repro.ftl.mapping.TranslationStore` (it issues real flash I/O
# and can recurse into GC, which no kernel can).


def cmt_evict_batch(slot_tvpn, slot_dirty, slot_stamp):
    """Batched dirty write-back selection: dirty tvpns in LRU order.

    Clears the selected slots' dirty flags and returns their tvpns
    oldest-stamp first -- the order a scalar flush walks the cache.
    Stamps are unique (one monotonic counter), so the order is total.
    The caller issues the actual translation programs.
    """
    idx = np.flatnonzero((slot_tvpn >= 0) & (slot_dirty != 0))
    idx = idx[np.argsort(slot_stamp[idx])]
    out = slot_tvpn[idx].copy()
    slot_dirty[idx] = 0
    return out


__all__ = [
    "UNMAPPED",
    "cmt_evict_batch",
    "map_batch_apply",
    "relocate_run_apply",
]
