"""Flash device geometry and address arithmetic.

Addresses are flat integers at two granularities:

- *page id*: ``0 .. total_pages - 1``
- *block id*: ``0 .. total_blocks - 1`` where ``block = page // pages_per_block``

Blocks are striped across planes round-robin (block ``b`` lives on plane
``b % total_planes``), the common layout that lets a sequential block scan
exploit all planes. Planes group into channels.

An address is checked and resolved once (DESIGN.md §6): the layer a page
id enters splits it with :meth:`FlashGeometry.split_page` -- one range
test, one ``divmod`` -- and hands ``(block, offset)`` down. Hot paths test
a range inline and call ``check_*`` only to raise.

Real devices have much larger geometries than we simulate; experiments use
scaled-down instances (see DESIGN.md §2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.flash.cells import CellType

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
TIB = 1024 * GIB


@dataclass(frozen=True)
class FlashGeometry:
    """Static shape of a NAND device.

    Parameters
    ----------
    page_size:
        Bytes per page; reads and programs happen at this granularity
        (typically 4 KiB logical).
    pages_per_block:
        Pages in one erasure block; programs within a block must be
        sequential, erases cover the whole block.
    blocks_per_plane:
        Erasure blocks per plane.
    planes_per_channel:
        Planes per channel (die). Operations on different planes proceed in
        parallel; a channel serializes data transfers.
    channels:
        Independent channels.
    cell_type:
        NAND technology; sets timing and endurance defaults.
    """

    page_size: int = 4 * KIB
    pages_per_block: int = 256
    blocks_per_plane: int = 64
    planes_per_channel: int = 2
    channels: int = 4
    cell_type: CellType = CellType.TLC
    # Derived sizes, precomputed once: these sit on every hot address
    # computation, so they must be plain attribute loads, not properties.
    total_planes: int = field(init=False, repr=False, compare=False)
    total_blocks: int = field(init=False, repr=False, compare=False)
    total_pages: int = field(init=False, repr=False, compare=False)
    block_size: int = field(init=False, repr=False, compare=False)
    capacity_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in (
            "page_size",
            "pages_per_block",
            "blocks_per_plane",
            "planes_per_channel",
            "channels",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        set_ = object.__setattr__  # frozen dataclass
        set_(self, "total_planes", self.planes_per_channel * self.channels)
        set_(self, "total_blocks", self.blocks_per_plane * self.total_planes)
        set_(self, "total_pages", self.total_blocks * self.pages_per_block)
        set_(self, "block_size", self.pages_per_block * self.page_size)
        set_(self, "capacity_bytes", self.total_pages * self.page_size)

    # -- Address arithmetic -------------------------------------------------

    def split_page(self, page: int) -> tuple[int, int]:
        """``(block, offset)`` of ``page``: the one checked split."""
        if not 0 <= page < self.total_pages:
            self.check_page(page)
        return divmod(page, self.pages_per_block)

    def block_of_page(self, page: int) -> int:
        return self.split_page(page)[0]

    def page_offset_in_block(self, page: int) -> int:
        return self.split_page(page)[1]

    def first_page_of_block(self, block: int) -> int:
        self.check_block(block)
        return block * self.pages_per_block

    def pages_of_block(self, block: int) -> range:
        start = self.first_page_of_block(block)
        return range(start, start + self.pages_per_block)

    def plane_of_block(self, block: int) -> int:
        self.check_block(block)
        return block % self.total_planes

    def channel_of_block(self, block: int) -> int:
        return self.plane_of_block(block) // self.planes_per_channel

    def check_page(self, page: int) -> None:
        if not 0 <= page < self.total_pages:
            raise IndexError(f"page {page} out of range [0, {self.total_pages})")

    def check_block(self, block: int) -> None:
        if not 0 <= block < self.total_blocks:
            raise IndexError(f"block {block} out of range [0, {self.total_blocks})")

    # -- Canned geometries ---------------------------------------------------

    @staticmethod
    def small(cell_type: CellType = CellType.TLC) -> "FlashGeometry":
        """A tiny 32 MiB device for unit tests (8192 pages)."""
        return FlashGeometry(
            page_size=4 * KIB,
            pages_per_block=64,
            blocks_per_plane=16,
            planes_per_channel=2,
            channels=4,
            cell_type=cell_type,
        )

    @staticmethod
    def bench(cell_type: CellType = CellType.TLC) -> "FlashGeometry":
        """A 256 MiB device used by most experiments (65536 pages)."""
        return FlashGeometry(
            page_size=4 * KIB,
            pages_per_block=128,
            blocks_per_plane=32,
            planes_per_channel=2,
            channels=8,
            cell_type=cell_type,
        )


@dataclass(frozen=True)
class ZonedGeometry:
    """Extends a flash geometry with the zone shape of a ZNS device.

    A zone spans ``blocks_per_zone`` whole erasure blocks (the paper notes
    zones are at least as large as erasure blocks). ``max_active_zones``
    caps how many zones may be in the open/closed (resource-holding) states
    at once -- the device evaluated in the paper's reference [10] exposes
    1 GB zones and 14 active zones.
    """

    flash: FlashGeometry = field(default_factory=FlashGeometry)
    blocks_per_zone: int = 4
    max_active_zones: int = 14
    max_open_zones: int | None = None  # defaults to max_active_zones

    def __post_init__(self) -> None:
        if self.blocks_per_zone < 1:
            raise ValueError("blocks_per_zone must be >= 1")
        if self.flash.total_blocks % self.blocks_per_zone != 0:
            raise ValueError(
                f"total_blocks {self.flash.total_blocks} not divisible by "
                f"blocks_per_zone {self.blocks_per_zone}"
            )
        if self.max_active_zones < 1:
            raise ValueError("max_active_zones must be >= 1")
        if self.max_open_zones is not None and self.max_open_zones < 1:
            raise ValueError("max_open_zones must be >= 1")

    @property
    def open_limit(self) -> int:
        return self.max_open_zones if self.max_open_zones is not None else self.max_active_zones

    @property
    def zone_count(self) -> int:
        return self.flash.total_blocks // self.blocks_per_zone

    @property
    def zone_size_bytes(self) -> int:
        return self.blocks_per_zone * self.flash.block_size

    @property
    def pages_per_zone(self) -> int:
        return self.blocks_per_zone * self.flash.pages_per_block

    def blocks_of_zone(self, zone: int) -> range:
        if not 0 <= zone < self.zone_count:
            raise IndexError(f"zone {zone} out of range [0, {self.zone_count})")
        start = zone * self.blocks_per_zone
        return range(start, start + self.blocks_per_zone)

    @staticmethod
    def small() -> "ZonedGeometry":
        return ZonedGeometry(flash=FlashGeometry.small(), blocks_per_zone=2, max_active_zones=8)

    @staticmethod
    def bench() -> "ZonedGeometry":
        return ZonedGeometry(flash=FlashGeometry.bench(), blocks_per_zone=4, max_active_zones=14)


__all__ = ["FlashGeometry", "ZonedGeometry", "KIB", "MIB", "GIB", "TIB"]
