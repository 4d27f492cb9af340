"""The device interfaces the host stack programs against.

Two protocols, one per side of the paper's argument:

- :class:`BlockDevice` -- the conventional interface: a flat array of
  fixed-size logical blocks, randomly writable. Everything above the
  device layer (filesystems, the LSM store's file backend, the flash
  cache) can program against it, so the same application code runs over
  a conventional SSD, a RAM disk, or the dm-zoned-style translation
  layer over a ZNS device -- which is exactly the interchangeability
  argument the paper makes in §2.3. A file reaches a device as a few
  extents, not one call per block, so beside the per-block
  ``read_block``/``write_block``/``trim_block`` the protocol has one
  ranged command, ``write_blocks(start, count)``: the same device state
  as ``write_block`` on each block of the run in ascending order,
  issued as a single call.
- :class:`ZonedDevice` -- the NVMe ZNS command surface
  (report/open/close/finish/reset, sequential write, zone append, simple
  copy). The host translation layer (:mod:`repro.block.dmzoned`), the
  placement store (:mod:`repro.placement.store`), and the timed host
  stack (:mod:`repro.hostio.timed`) are typed against this protocol, not
  the concrete :class:`~repro.zns.device.ZNSDevice`, so alternative
  device models (different geometry policies, fault injection, traces)
  slot in without touching the host stack.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flash.geometry import ZonedGeometry
    from repro.flash.ops import FlashOp
    from repro.zns.zone import Zone, ZoneState


@runtime_checkable
class BlockDevice(Protocol):
    """A flat array of fixed-size logical blocks, randomly writable."""

    @property
    def block_size(self) -> int:
        """Bytes per logical block."""
        ...

    @property
    def num_blocks(self) -> int:
        """Number of addressable logical blocks."""
        ...

    def read_block(self, lba: int) -> Any:
        """Return the payload stored at ``lba`` (None if payloads unset)."""
        ...

    def write_block(self, lba: int, data: Any = None) -> None:
        """Store ``data`` at ``lba``, overwriting any previous contents."""
        ...

    def write_blocks(self, start: int, count: int) -> None:
        """Write the extent ``[start, start + count)`` without payloads.

        Leaves the device as ``for lba in range(start, start + count):
        write_block(lba)`` would, except that a run reaching outside the
        device is rejected before any block is written.
        """
        ...

    def trim_block(self, lba: int) -> None:
        """Hint that ``lba`` no longer holds useful data."""
        ...


@runtime_checkable
class ZonedDevice(Protocol):
    """The ZNS command surface: zone report, management, and data path.

    Matches :class:`~repro.zns.device.ZNSDevice`. Data commands build
    the :class:`~repro.flash.ops.FlashOp` records of the work they did on
    request (``build_ops=True``, the default) so timed experiments can
    replay contention; untimed callers pass ``build_ops=False`` and get
    none. Zone resets always return their erases.
    """

    # -- Introspection / report ------------------------------------------------

    @property
    def geometry(self) -> "ZonedGeometry":
        """Zoned geometry (flash shape, zone width, active/open limits)."""
        ...

    @property
    def zone_count(self) -> int:
        """Number of zones exposed by the device."""
        ...

    @property
    def page_size(self) -> int:
        """Bytes per page (the write/read granularity)."""
        ...

    def zone(self, zone_id: int) -> "Zone":
        """The live descriptor for one zone (do not mutate)."""
        ...

    def report_zones(self) -> list["Zone"]:
        """Zone report: all live zone descriptors."""
        ...

    def zones_in_state(self, state: "ZoneState") -> list[int]:
        """Ids of zones currently in ``state``."""
        ...

    # -- Zone management -------------------------------------------------------

    def open_zone(self, zone_id: int) -> None:
        """Explicitly open a zone, pinning one open slot for the host."""
        ...

    def close_zone(self, zone_id: int) -> None:
        """Transition an open zone to CLOSED (stays active)."""
        ...

    def finish_zone(self, zone_id: int) -> None:
        """Mark a zone FULL without writing the remainder (frees its slot)."""
        ...

    def reset_zone(self, zone_id: int) -> list["FlashOp"]:
        """Erase the zone's blocks and rewind the write pointer."""
        ...

    # -- Data path -------------------------------------------------------------

    def write(
        self,
        zone_id: int,
        npages: int = 1,
        offset: int | None = None,
        data: Any = None,
        build_ops: bool = True,
        cause: str = "host",
    ) -> list["FlashOp"]:
        """Sequential write at the write pointer (``[]`` without ``build_ops``)."""
        ...

    def append(
        self, zone_id: int, npages: int = 1, data: Any = None, build_ops: bool = True
    ) -> tuple[int, list["FlashOp"]]:
        """Zone append: the device assigns the offset."""
        ...

    def read(
        self, zone_id: int, offset: int, cause: str = "host", build_ops: bool = True
    ) -> tuple[Any, "FlashOp | None"]:
        """Read one page at (zone, offset below the write pointer); no op without ``build_ops``."""
        ...

    def simple_copy(
        self, sources: list[tuple[int, int]], dst_zone_id: int, build_ops: bool = True
    ) -> tuple[int, list["FlashOp"]]:
        """NVMe simple copy into a destination zone (``[]`` without ``build_ops``)."""
        ...


def check_lba(device: BlockDevice, lba: int) -> None:
    """Shared bounds check for block-device implementations."""
    if not 0 <= lba < device.num_blocks:
        raise IndexError(f"lba {lba} out of range [0, {device.num_blocks})")


def check_extent(device: BlockDevice, start: int, count: int) -> None:
    """Shared bounds check for ``write_blocks``: the whole run, up front."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if start < 0 or start + count > device.num_blocks:
        raise IndexError(
            f"extent [{start}, {start + count}) out of range [0, {device.num_blocks})"
        )


__all__ = ["BlockDevice", "ZonedDevice", "check_extent", "check_lba"]
