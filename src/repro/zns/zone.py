"""Zone state machine.

A zone moves through the six states of the NVMe ZNS specification (paper
§2.1): EMPTY -> (IMPLICIT_/EXPLICIT_)OPEN -> CLOSED/FULL -> (reset) ->
EMPTY, with READ_ONLY and OFFLINE as terminal degradation states. The
:class:`Zone` object tracks the write pointer and writable capacity; the
device model (:mod:`repro.zns.device`) enforces the cross-zone resource
limits and performs the flash operations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.flash.state import Replayable
from repro.zns.errors import (
    ZoneFullError,
    ZoneOfflineError,
    ZoneReadOnlyError,
    ZoneStateError,
)


class ZoneState(enum.Enum):
    EMPTY = "empty"
    IMPLICIT_OPEN = "implicit-open"
    EXPLICIT_OPEN = "explicit-open"
    CLOSED = "closed"
    FULL = "full"
    READ_ONLY = "read-only"
    OFFLINE = "offline"

    @property
    def is_open(self) -> bool:
        return self in (ZoneState.IMPLICIT_OPEN, ZoneState.EXPLICIT_OPEN)

    @property
    def is_active(self) -> bool:
        """Active zones hold device resources (write buffers, paper §2.1)."""
        return self.is_open or self is ZoneState.CLOSED


@dataclass
class Zone(Replayable):
    """One zone: identity, state, write pointer, and capacity.

    ``capacity_pages`` may shrink below ``size_pages`` after resets retire
    worn erasure blocks (paper §2.1: "flash cell failures are handled
    transparently by decreasing the length of a zone after a reset").
    ``wp`` counts pages written since the last reset, relative to the zone
    start.
    """

    zone_id: int
    size_pages: int
    capacity_pages: int = field(default=-1)
    state: ZoneState = ZoneState.EMPTY
    wp: int = 0
    reset_count: int = 0

    def __post_init__(self) -> None:
        if self.size_pages < 1:
            raise ValueError("size_pages must be >= 1")
        if self.capacity_pages < 0:
            self.capacity_pages = self.size_pages
        if self.capacity_pages > self.size_pages:
            raise ValueError("capacity cannot exceed size")

    @property
    def remaining(self) -> int:
        """Writable pages left before the zone is full."""
        return max(self.capacity_pages - self.wp, 0)

    @property
    def is_writable(self) -> bool:
        return self.state in (
            ZoneState.EMPTY,
            ZoneState.IMPLICIT_OPEN,
            ZoneState.EXPLICIT_OPEN,
            ZoneState.CLOSED,
        )

    def check_readable(self, offset: int) -> None:
        """Reads must target written pages of a non-offline zone."""
        if self.state is ZoneState.OFFLINE:
            raise ZoneOfflineError(f"zone {self.zone_id} is offline")
        if not 0 <= offset < self.wp:
            raise ZoneStateError(
                f"read at offset {offset} of zone {self.zone_id}, wp={self.wp}"
            )

    def check_writable(self, npages: int) -> None:
        state = self.state
        if state is ZoneState.OFFLINE:
            raise ZoneOfflineError(f"zone {self.zone_id} is offline")
        if state is ZoneState.READ_ONLY:
            raise ZoneReadOnlyError(f"zone {self.zone_id} is read-only")
        if state is ZoneState.FULL:
            raise ZoneStateError(f"zone {self.zone_id} is full")
        if npages > self.capacity_pages - self.wp:
            raise ZoneFullError(
                f"write of {npages} pages exceeds zone {self.zone_id} "
                f"remaining capacity {self.remaining}"
            )

    def advance(self, npages: int) -> None:
        """Move the write pointer after a successful write/append."""
        self.wp += npages
        if self.wp >= self.capacity_pages:
            self.state = ZoneState.FULL

    def transition_open(self, explicit: bool) -> None:
        if not self.is_writable:
            raise ZoneStateError(f"cannot open zone {self.zone_id} in {self.state}")
        self.state = ZoneState.EXPLICIT_OPEN if explicit else ZoneState.IMPLICIT_OPEN

    def transition_closed(self) -> None:
        if not self.state.is_open:
            raise ZoneStateError(f"cannot close zone {self.zone_id} in {self.state}")
        if self.wp == 0:
            # NVMe: closing an open zone with nothing written returns it to
            # EMPTY (no resources retained).
            self.state = ZoneState.EMPTY
        else:
            self.state = ZoneState.CLOSED

    def transition_full(self) -> None:
        """Finish: mark full regardless of write pointer position."""
        if self.state in (ZoneState.READ_ONLY, ZoneState.OFFLINE):
            raise ZoneStateError(f"cannot finish zone {self.zone_id} in {self.state}")
        self.state = ZoneState.FULL

    def transition_read_only(self) -> None:
        """Degrade: written data stays readable, further writes rejected.

        The device moves a zone here when a program fails mid-zone (paper
        §2.1's grown-defect handling): the write pointer no longer matches
        the backing blocks' programmed state, so the host must copy the
        data out and reset the zone, which erases (and possibly retires)
        the damaged block.
        """
        if self.state is ZoneState.OFFLINE:
            raise ZoneOfflineError(f"zone {self.zone_id} is offline")
        self.state = ZoneState.READ_ONLY

    def transition_offline(self) -> None:
        """Terminal degradation: capacity and any written data are gone."""
        self.state = ZoneState.OFFLINE

    def transition_empty(self, new_capacity: int | None = None) -> None:
        """Reset: write pointer rewinds, optionally shrinking capacity."""
        if self.state is ZoneState.OFFLINE:
            raise ZoneOfflineError(f"cannot reset offline zone {self.zone_id}")
        if new_capacity is not None:
            if not 0 <= new_capacity <= self.size_pages:
                raise ValueError("invalid new capacity")
            self.capacity_pages = new_capacity
        self.wp = 0
        self.reset_count += 1
        if self.capacity_pages == 0:
            self.state = ZoneState.OFFLINE
        else:
            self.state = ZoneState.EMPTY


__all__ = ["Zone", "ZoneState"]
