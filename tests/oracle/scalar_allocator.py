"""Scalar reference for ``repro.apps.lsm.backends.ExtentAllocator``.

This is the allocator as it stood before ``allocate`` went in-place
(commit e0656a4), bodies kept verbatim: every call sums the free list,
builds the whole placement order, walks all of it and re-sorts what is
left. It pins what the rewrite must reproduce -- the extents returned and
their order, ``_free``, ``_cursor`` and, for ``aged``, one
``rng.permutation(len(_free))`` draw per call.
"""

import numpy as np

from repro.apps.lsm.backends import AllocationError, _Extent


class ScalarExtentAllocator:
    def __init__(
        self,
        total_blocks: int,
        strategy: str = "next-fit",
        rng: "np.random.Generator | None" = None,
    ):
        if total_blocks < 1:
            raise ValueError("total_blocks must be >= 1")
        if strategy not in ("first-fit", "next-fit", "aged"):
            raise ValueError(f"unknown allocation strategy {strategy!r}")
        self.total_blocks = total_blocks
        self.strategy = strategy
        self.rng = rng
        self._cursor = 0
        self._free: list[_Extent] = [_Extent(0, total_blocks)]

    @property
    def free_blocks(self) -> int:
        return sum(e.length for e in self._free)

    def allocate(self, length: int) -> list[_Extent]:
        """Allocate ``length`` blocks, possibly as several extents."""
        if length < 1:
            raise ValueError("length must be >= 1")
        if length > self.free_blocks:
            raise AllocationError(
                f"requested {length} blocks, {self.free_blocks} free"
            )
        if self.strategy == "next-fit":
            # Rotate the scan order so allocation resumes at the cursor,
            # splitting the extent that spans it so the region behind the
            # cursor is only reused after a full wrap.
            split: list[_Extent] = []
            for extent in self._free:
                if extent.start < self._cursor < extent.end:
                    split.append(_Extent(extent.start, self._cursor - extent.start))
                    split.append(_Extent(self._cursor, extent.end - self._cursor))
                else:
                    split.append(extent)
            ordered = sorted(split, key=lambda e: (e.start < self._cursor, e.start))
        elif self.strategy == "aged":
            if self.rng is None:
                self.rng = np.random.default_rng(0)
            order = self.rng.permutation(len(self._free))
            ordered = [self._free[i] for i in order]
        else:
            ordered = list(self._free)
        taken: list[_Extent] = []
        keep: list[_Extent] = []
        remaining = length
        for extent in ordered:
            if remaining == 0:
                keep.append(extent)
            elif extent.length <= remaining:
                taken.append(extent)
                remaining -= extent.length
            else:
                taken.append(_Extent(extent.start, remaining))
                keep.append(_Extent(extent.start + remaining, extent.length - remaining))
                remaining = 0
        self._free = sorted(keep, key=lambda e: e.start)
        if taken:
            self._cursor = taken[-1].end % self.total_blocks
        return taken

    def free(self, extents: list[_Extent]) -> None:
        """Return extents to the free list, coalescing neighbors."""
        merged = sorted(self._free + list(extents), key=lambda e: e.start)
        out: list[_Extent] = []
        for extent in merged:
            if out and out[-1].end == extent.start:
                out[-1] = _Extent(out[-1].start, out[-1].length + extent.length)
            elif out and out[-1].end > extent.start:
                raise ValueError(f"double free around block {extent.start}")
            else:
                out.append(extent)
        self._free = out
