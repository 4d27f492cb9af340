"""Operation latency model.

Latency of a NAND operation has two parts:

- *array time*: the plane is busy sensing (read), programming, or erasing.
  Only operations on other planes can proceed meanwhile.
- *transfer time*: page data crosses the channel between the controller
  and the die. The channel serializes transfers from all its planes.

The DES in :mod:`repro.sim` models both resources; untimed experiments use
this model only for reporting (e.g. E10's erase/program ratio table).

Erase suspension: per Wu & He (FAST'12, the paper's [54]), controllers can
suspend an in-flight erase to service a read and resume it afterwards. The
model exposes the resume overhead so schedulers can weigh suspension.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.flash.cells import CellType


@dataclass(frozen=True)
class TimingModel:
    """Latency parameters (microseconds) for one device.

    Defaults derive from the cell type's characteristics; override fields
    to model faster or slower parts. The channel transfer rate default of
    800 MB/s approximates an ONFI 4.x channel.
    """

    cell_type: CellType = CellType.TLC
    read_us: float = field(default=0.0)
    program_us: float = field(default=0.0)
    erase_us: float = field(default=0.0)
    channel_mb_per_s: float = 800.0
    erase_suspend_overhead_us: float = 50.0

    def __post_init__(self) -> None:
        chars = self.cell_type.characteristics
        if self.read_us <= 0:
            object.__setattr__(self, "read_us", chars.read_us)
        if self.program_us <= 0:
            object.__setattr__(self, "program_us", chars.program_us)
        if self.erase_us <= 0:
            object.__setattr__(self, "erase_us", chars.erase_us)
        if self.channel_mb_per_s <= 0:
            raise ValueError("channel_mb_per_s must be positive")

    def transfer_us(self, nbytes: int) -> float:
        """Time for ``nbytes`` to cross the channel."""
        return nbytes / (self.channel_mb_per_s * 1024 * 1024) * 1e6

    def read_total_us(self, page_size: int) -> float:
        """Array read plus channel transfer for one page."""
        return self.read_us + self.transfer_us(page_size)

    def program_total_us(self, page_size: int) -> float:
        """Channel transfer plus array program for one page."""
        return self.program_us + self.transfer_us(page_size)

    @staticmethod
    def for_cell(cell_type: CellType) -> "TimingModel":
        return TimingModel(cell_type=cell_type)


@dataclass(frozen=True)
class ZoneMgmtTiming:
    """Latency (microseconds) of ZNS zone-management commands.

    The ZNS spec prices data commands but leaves management commands
    (reset, finish, open, close) unpriced, and most models treat them as
    free. They are not: a reset must quiesce the zone's dies and update
    controller mapping state before the erases even start, and a finish
    pads the unwritten remainder of the zone (``finish_per_page_us`` per
    unwritten page) so the device can seal its metadata.

    All fields default to zero, which means "management is free" -- the
    historical behavior. A device given a :class:`ZoneMgmtTiming` with
    any nonzero field starts charging (and, in the DES, *occupying the
    zone and a die lane for*) these costs.
    """

    reset_us: float = 0.0
    finish_us: float = 0.0
    finish_per_page_us: float = 0.0
    open_us: float = 0.0
    close_us: float = 0.0

    def __post_init__(self) -> None:
        for name in ("reset_us", "finish_us", "finish_per_page_us", "open_us", "close_us"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def enabled(self) -> bool:
        """True when any management command costs time."""
        return bool(
            self.reset_us
            or self.finish_us
            or self.finish_per_page_us
            or self.open_us
            or self.close_us
        )

    def finish_total_us(self, unwritten_pages: int) -> float:
        """Cost of finishing a zone with ``unwritten_pages`` left unpadded."""
        return self.finish_us + self.finish_per_page_us * unwritten_pages


__all__ = ["TimingModel", "ZoneMgmtTiming"]
