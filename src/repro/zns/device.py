"""The ZNS device model.

:class:`ZNSDevice` implements the NVMe ZNS command set over the NAND
substrate: zone report, explicit open/close/finish/reset, sequential
writes validated against the write pointer, the zone-append command, and
the simple-copy command (paper §2.3). Zone data is striped across the
zone's erasure blocks so sequential zone fills exploit plane parallelism,
as real devices do.

:class:`TimedZNSDevice` runs the same state machine inside the DES, on
the timed front end (:class:`~repro.hostio.frontend.TimedFrontEnd`). Its
crucial modeling choice reproduces §4.2's contention discussion: regular
writes must present the current write pointer, so concurrent writers to
one zone serialize on a host-side lock; zone appends let the *device*
assign offsets, so they only contend for planes and channels.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from operator import attrgetter
from typing import Any, TYPE_CHECKING

from repro.flash.errors import ProgramFaultError
from repro.flash.geometry import ZonedGeometry
from repro.flash.nand import NandArray
from repro.flash.ops import FlashOp, OpKind
from repro.flash.service import FlashServiceModel
from repro.flash.state import Replayable
from repro.flash.timing import TimingModel, ZoneMgmtTiming
from repro.hostio.frontend import TimedFrontEnd
from repro.obs.events import (
    FlashOpEvent,
    RecoveryEvent,
    ZoneAppendEvent,
    ZoneMgmtEvent,
    ZoneTransitionEvent,
)
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine
from repro.sim.resources import Resource
from repro.zns.errors import (
    ActiveZoneLimitError,
    OpenZoneLimitError,
    WritePointerError,
    ZoneFinishTimeoutError,
    ZoneOfflineError,
    ZoneReadOnlyError,
    ZoneResetFailedError,
    ZoneStateError,
    ZoneStuckOpenError,
)
from repro.zns.ftl import ZnsFTL
from repro.zns.zone import Zone, ZoneState

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector

_state_of = attrgetter("state")


class ZNSDevice(Replayable):
    """Untimed ZNS SSD: zone state machines over a thin FTL.

    Parameters
    ----------
    geometry:
        Zoned geometry (flash shape, zone width, active/open limits).
    store_data / nand / timing:
        Substrate configuration; see :class:`~repro.flash.nand.NandArray`.
    spare_blocks:
        Blocks reserved for bad-block replacement (not exposed as zones).
    striped:
        Stripe zone pages round-robin across the zone's erasure blocks
        (page offset ``i`` lands in block ``i % blocks_per_zone``). Real
        controllers do this for parallelism; disable to get a strictly
        linear layout.
    faults:
        Optional armed :class:`~repro.faults.injector.FaultInjector`.
        A program fault degrades the struck zone to READ_ONLY, keeping
        the pages before it (the one fault contract of :meth:`write`,
        :meth:`append` and :meth:`simple_copy`); scheduled zone-offline
        events are polled before every host command; management
        commands (reset/finish) can bounce with retryable errors (reset
        failures, finish timeouts, stuck-open zones). Disarmed injectors
        cost nothing.
    mgmt_timing:
        Optional :class:`~repro.flash.timing.ZoneMgmtTiming`: when set,
        reset/finish charge their management overhead (as an extra
        :class:`~repro.flash.ops.FlashOp` of kind ``MGMT`` in the
        returned op list) and every management command publishes a
        :class:`~repro.obs.events.ZoneMgmtEvent`. ``None`` (default)
        keeps management free and silent -- the historical behavior.
    """

    def __init__(
        self,
        geometry: ZonedGeometry | None = None,
        store_data: bool = False,
        nand: NandArray | None = None,
        timing: TimingModel | None = None,
        spare_blocks: int = 0,
        striped: bool = True,
        tracer: Tracer | None = None,
        faults: "FaultInjector | None" = None,
        mgmt_timing: ZoneMgmtTiming | None = None,
    ):
        self.geometry = geometry or ZonedGeometry.bench()
        self.nand = nand or NandArray(
            self.geometry.flash, timing=timing, store_data=store_data, tracer=tracer,
            faults=faults,
        )
        # The NAND keeps the injector only when armed; share its decision
        # so the zone-offline polls below stay strict no-ops when disarmed.
        self.faults = self.nand.faults
        # Command-level events (layer "zns.device") share the NAND's bus, so
        # one sink sees both the NVMe command and the flash ops it caused.
        self.tracer = tracer if tracer is not None else self.nand.tracer
        self.ftl = ZnsFTL(self.geometry, self.nand, spare_blocks=spare_blocks)
        self.striped = striped
        self.zones: list[Zone] = [
            Zone(zone_id=z, size_pages=self.geometry.pages_per_zone)
            for z in range(self.ftl.zone_count)
        ]
        self.mgmt_timing = mgmt_timing
        # Timed wrappers own the ZoneMgmtEvent publish (they know the
        # queued-behind count); they set this to suppress ours.
        self._defer_mgmt_events = False
        # Implicitly-open zones as zone -> monotonic stamp: O(1) touch and
        # removal, LRU eviction a min-stamp scan over open_limit entries.
        self._open_stamp: dict[int, int] = {}
        self._open_clock = 0

    @property
    def _open_order(self) -> list[int]:
        """Implicitly-open zones, LRU first (introspection/test view)."""
        return sorted(self._open_stamp, key=self._open_stamp.__getitem__)

    def _publish_transition(self, zone: Zone, old_state: ZoneState, trigger: str) -> None:
        if self.tracer.enabled and zone.state is not old_state:
            self.tracer.publish(
                ZoneTransitionEvent(
                    "zns.device", zone.zone_id, old_state.value,
                    zone.state.value, trigger, wp=zone.wp,
                )
            )

    # -- Fault handling ------------------------------------------------------------

    def _poll_faults(self) -> None:
        """Apply scheduled zone-offline events that have come due.

        Called at the head of every host command when an armed injector is
        attached; the schedule keys on the injector's global flash-op
        counter, so offlines land between commands, never mid-command.
        """
        for zone_id in self.faults.due_zone_offlines():
            if not 0 <= zone_id < len(self.zones):
                continue
            zone = self.zones[zone_id]
            if zone.state is ZoneState.OFFLINE:
                continue
            old_state = zone.state
            zone.transition_offline()
            self._note_no_longer_open(zone_id)
            self._publish_transition(zone, old_state, "fault-offline")
            if self.tracer.enabled:
                self.tracer.publish(
                    RecoveryEvent(
                        "zns.device", "zone-offline", zone=zone_id,
                        detail="scheduled fault",
                    )
                )

    def _degrade_read_only(self, zone: Zone, durable_pages: int) -> None:
        """A program fault struck ``zone`` mid-write: degrade to READ_ONLY.

        The ``durable_pages`` of the failed command that landed before the
        burn stay readable (the write pointer advances over exactly
        those); the burned flash page sits beyond the pointer and is never
        read. The host recovers by copying the zone out and resetting it.
        """
        old_state = zone.state
        zone.advance(durable_pages)
        zone.transition_read_only()
        self._note_no_longer_open(zone.zone_id)
        self._publish_transition(zone, old_state, "program-fault")
        if self.tracer.enabled:
            self.tracer.publish(
                RecoveryEvent(
                    "zns.device", "zone-read-only", zone=zone.zone_id,
                    pages_moved=durable_pages, detail="program fault",
                )
            )

    # -- Introspection / report ----------------------------------------------------

    @property
    def zone_count(self) -> int:
        return len(self.zones)

    @property
    def page_size(self) -> int:
        return self.geometry.flash.page_size

    def zone(self, zone_id: int) -> Zone:
        if not 0 <= zone_id < len(self.zones):
            raise IndexError(f"zone {zone_id} out of range [0, {len(self.zones)})")
        return self.zones[zone_id]

    def report_zones(self) -> list[Zone]:
        """Zone report: the live zone descriptors (do not mutate)."""
        return list(self.zones)

    def zones_in_state(self, state: ZoneState) -> list[int]:
        return [z.zone_id for z in self.zones if z.state is state]

    def _zones_in(self, *states: ZoneState) -> int:
        """How many zones are in one of ``states``.

        Every implicit open counts over all zones twice, so this runs no
        Python frame per zone: not ``ZoneState.is_open``, nor a set lookup
        (``Enum.__hash__`` is Python code).
        """
        zone_states = list(map(_state_of, self.zones))
        return sum(map(zone_states.count, states))

    @property
    def active_count(self) -> int:
        return self._zones_in(ZoneState.IMPLICIT_OPEN, ZoneState.EXPLICIT_OPEN, ZoneState.CLOSED)

    @property
    def open_count(self) -> int:
        return self._zones_in(ZoneState.IMPLICIT_OPEN, ZoneState.EXPLICIT_OPEN)

    def dram_bytes(self) -> int:
        """On-board DRAM for translation (thin FTL, paper §2.2)."""
        return self.ftl.dram_bytes()

    # -- Address translation -----------------------------------------------------

    def _page_of(self, zone_id: int, offset: int) -> int:
        blocks = self.ftl.live_blocks(zone_id)
        ppb = self.geometry.flash.pages_per_block
        if self.striped:
            width = len(blocks)
            block_index = offset % width
            within = offset // width
        else:
            block_index, within = divmod(offset, ppb)
        if within >= ppb or block_index >= len(blocks):
            raise IndexError(f"offset {offset} beyond zone {zone_id}")
        return blocks[block_index] * ppb + within

    def block_of_offset(self, zone_id: int, offset: int) -> int:
        """Physical block backing (zone, offset) -- for timed contention."""
        return self._page_of(zone_id, offset) // self.geometry.flash.pages_per_block

    # -- Zone resource limits -----------------------------------------------------

    def _ensure_open_for_write(self, zone: Zone) -> None:
        """Transition a zone toward open before writing, honoring limits.

        Writes to EMPTY or CLOSED zones implicitly open them. If the open
        limit is reached the device implicitly closes the LRU
        implicitly-open zone (per NVMe); explicitly-open zones are the
        host's to manage. If the *active* limit is reached the write is
        rejected -- the host must finish or reset a zone first.
        """
        state = zone.state
        if state is ZoneState.IMPLICIT_OPEN:
            # _open_stamp holds exactly the implicitly-open zones.
            self._mark_open(zone.zone_id)
            return
        if state is ZoneState.EXPLICIT_OPEN:
            return
        self._make_room_to_open(zone)
        zone.transition_open(explicit=False)
        self._mark_open(zone.zone_id)
        self._publish_transition(zone, state, "implicit-open")

    def _make_room_to_open(self, zone: Zone) -> None:
        """Refuse an EMPTY zone past the active limit; evict past the open one."""
        if zone.state is ZoneState.EMPTY and self.active_count >= self.geometry.max_active_zones:
            raise ActiveZoneLimitError(
                f"{self.active_count} zones active; limit {self.geometry.max_active_zones}"
            )
        if self.open_count >= self.geometry.open_limit:
            self._close_lru_implicit()

    def _mark_open(self, zone_id: int) -> None:
        """(Re)stamp a zone as most-recently-used implicit open. O(1)."""
        self._open_stamp[zone_id] = self._open_clock
        self._open_clock += 1

    def _close_lru_implicit(self) -> None:
        lru_zone = -1
        lru_stamp: int | None = None
        for zone_id, stamp in self._open_stamp.items():
            if self.zones[zone_id].state is ZoneState.IMPLICIT_OPEN and (
                lru_stamp is None or stamp < lru_stamp
            ):
                lru_zone, lru_stamp = zone_id, stamp
        if lru_stamp is None:
            raise OpenZoneLimitError(
                f"{self.open_count} zones open, none implicitly; "
                f"limit {self.geometry.open_limit}"
            )
        zone = self.zones[lru_zone]
        old_state = zone.state
        zone.transition_closed()
        del self._open_stamp[lru_zone]
        self._publish_transition(zone, old_state, "implicit-close")

    def _note_no_longer_open(self, zone_id: int) -> None:
        self._open_stamp.pop(zone_id, None)

    # -- Zone management commands ----------------------------------------------------

    def _publish_mgmt(
        self, action: str, zone_id: int, latency_us: float, queued_behind: int = 0
    ) -> None:
        """Publish one :class:`ZoneMgmtEvent` (mgmt cost modeling opted in)."""
        if self._defer_mgmt_events and action in ("reset", "finish"):
            return
        if self.mgmt_timing is not None and self.tracer.enabled:
            self.tracer.publish(
                ZoneMgmtEvent(
                    "zns.device", action, zone_id,
                    latency_us=latency_us, queued_behind=queued_behind,
                )
            )

    def _mgmt_op(self, zone_id: int, latency_us: float) -> FlashOp:
        """The management-overhead op record: a die-lane hold, no channel."""
        blocks = self.ftl.live_blocks(zone_id)
        return FlashOp(
            OpKind.MGMT, blocks[0] if blocks else 0, None, latency_us,
            uses_channel=False,
        )

    def _check_mgmt_faults(self, zone: Zone, command: str) -> None:
        """Bounce a management command with a retryable error, pre-mutation.

        Consulted by reset/finish before any state change: a bounced
        command leaves zone and flash state untouched so the host may
        simply retry.
        """
        if self.faults is None:
            return
        zone_id = zone.zone_id
        if zone.state.is_open and self.faults.zone_stuck(zone_id):
            raise ZoneStuckOpenError(
                f"zone {zone_id} stuck open; {command} rejected"
            )
        if command == "reset" and self.faults.on_zone_reset(zone_id):
            # The bounced command still held the zone for its duration.
            raise ZoneResetFailedError(
                f"zone {zone_id} reset failed transiently",
                latency_us=(
                    self.mgmt_timing.reset_us if self.mgmt_timing is not None else 0.0
                ),
            )
        if command == "finish" and self.faults.on_zone_finish(zone_id):
            raise ZoneFinishTimeoutError(
                f"zone {zone_id} finish timed out",
                latency_us=self.faults.plan.finish_timeout_us,
            )

    def open_zone(self, zone_id: int) -> None:
        """Explicitly open a zone, pinning one open slot for the host."""
        zone = self.zone(zone_id)
        if zone.state is ZoneState.EXPLICIT_OPEN:
            return
        if zone.state is ZoneState.FULL:
            raise ZoneStateError(f"cannot open full zone {zone_id}")
        if not zone.state.is_open:
            self._make_room_to_open(zone)
        self._note_no_longer_open(zone_id)
        old_state = zone.state
        zone.transition_open(explicit=True)
        self._publish_transition(zone, old_state, "open")
        if self.mgmt_timing is not None:
            self._publish_mgmt("open", zone_id, self.mgmt_timing.open_us)

    def close_zone(self, zone_id: int) -> None:
        zone = self.zone(zone_id)
        if (
            self.faults is not None
            and zone.state.is_open
            and self.faults.zone_stuck(zone_id)
        ):
            raise ZoneStuckOpenError(f"zone {zone_id} stuck open; close rejected")
        old_state = zone.state
        zone.transition_closed()
        self._note_no_longer_open(zone_id)
        self._publish_transition(zone, old_state, "close")
        if self.mgmt_timing is not None:
            self._publish_mgmt("close", zone_id, self.mgmt_timing.close_us)

    def finish_zone(self, zone_id: int) -> list[FlashOp]:
        """Mark a zone FULL without writing the remainder (frees its slot).

        NVMe semantics, made explicit: finishing a FULL zone is a no-op
        success; finishing an EMPTY zone is the *valid* ZSE->ZSF
        transition (the zone seals with wp 0 and no readable pages);
        READ_ONLY / OFFLINE zones raise their typed errors. Management
        faults (stuck-open, finish timeout) bounce pre-mutation with
        retryable errors. Returns the management-overhead op records
        (empty unless ``mgmt_timing`` is attached and nonzero).
        """
        zone = self.zone(zone_id)
        if zone.state is ZoneState.FULL:
            return []
        if zone.state is ZoneState.OFFLINE:
            raise ZoneOfflineError(f"cannot finish offline zone {zone_id}")
        if zone.state is ZoneState.READ_ONLY:
            raise ZoneReadOnlyError(f"cannot finish read-only zone {zone_id}")
        self._check_mgmt_faults(zone, "finish")
        unwritten = zone.remaining
        old_state = zone.state
        zone.transition_full()
        self._note_no_longer_open(zone_id)
        self._publish_transition(zone, old_state, "finish")
        ops: list[FlashOp] = []
        if self.mgmt_timing is not None:
            overhead = self.mgmt_timing.finish_total_us(unwritten)
            if overhead:
                ops.append(self._mgmt_op(zone_id, overhead))
            self._publish_mgmt("finish", zone_id, overhead)
        return ops

    def reset_zone(self, zone_id: int) -> list[FlashOp]:
        """Erase the zone's blocks and rewind the write pointer.

        NVMe semantics, made explicit: resetting an EMPTY zone is a
        valid no-op success -- its blocks are already erased, so no
        erase is issued, no wear accrues, and no transition publishes
        (only the command's management overhead, when modeled).
        Management faults (stuck-open, transient reset failure) bounce
        pre-mutation with retryable errors. The returned op list leads
        with the management-overhead op when ``mgmt_timing`` is
        attached, followed by one erase per zone block.
        """
        if self.faults is not None:
            self._poll_faults()
        zone = self.zone(zone_id)
        if zone.state is ZoneState.OFFLINE:
            raise ZoneStateError(f"zone {zone_id} is offline")
        if zone.state is ZoneState.EMPTY:
            ops = []
            if self.mgmt_timing is not None:
                overhead = self.mgmt_timing.reset_us
                if overhead:
                    ops.append(self._mgmt_op(zone_id, overhead))
                self._publish_mgmt("reset", zone_id, overhead)
            return ops
        self._check_mgmt_faults(zone, "reset")
        blocks_before = self.ftl.blocks_of_zone(zone_id)
        old_state = zone.state
        latencies, new_capacity = self.ftl.reset_zone(zone_id)
        zone.transition_empty(new_capacity=new_capacity)
        self._note_no_longer_open(zone_id)
        if zone.state is ZoneState.OFFLINE and self.tracer.enabled:
            self.tracer.publish(
                RecoveryEvent(
                    "zns.device", "zone-offline", zone=zone_id,
                    detail="capacity exhausted",
                )
            )
        ops = [
            FlashOp(OpKind.ERASE, block, None, latency, uses_channel=False)
            for block, latency in zip(blocks_before, latencies)
        ]
        if self.tracer.enabled:
            self.tracer.publish(
                FlashOpEvent("zns.device", "erase", count=len(ops), cause="zone-mgmt")
            )
        self._publish_transition(zone, old_state, "reset")
        if self.mgmt_timing is not None:
            overhead = self.mgmt_timing.reset_us
            if overhead:
                ops.insert(0, self._mgmt_op(zone_id, overhead))
            self._publish_mgmt("reset", zone_id, overhead)
        return ops

    # -- Data commands ----------------------------------------------------------------

    def write(
        self,
        zone_id: int,
        npages: int = 1,
        offset: int | None = None,
        data: Any = None,
        build_ops: bool = True,
        cause: str = "host",
    ) -> list[FlashOp]:
        """Sequential write at the write pointer: the one write command.

        ``offset``, when given, must equal the zone's current write pointer
        (otherwise :class:`WritePointerError` -- the §4.2 race). ``data``
        is one payload for every page, or a list or tuple of one per page.
        Pages program one at a time in offset order, and a program fault
        degrades the zone to READ_ONLY with the pages before it durable
        (:meth:`simple_copy` keeps the same contract). Returns the per-page
        op records in offset order. With ``build_ops=False`` (callers that
        never replay ops), no armed injector and no payload, each block of
        the zone instead takes its share as one ``program_run`` (its pages
        are sequential from its write offset by the zone invariant), and
        the command returns ``[]``. Its pages are booked under ``cause``,
        ``reclaim`` for a host-side relocation.
        """
        if npages < 1:
            raise ValueError("npages must be >= 1")
        # A list or tuple is one payload per page; anything else, every page's.
        per_page = isinstance(data, (list, tuple))
        if per_page and len(data) != npages:
            raise ValueError(f"{len(data)} payloads for a write of {npages} pages")
        if self.faults is not None:
            self._poll_faults()
        # Resolved once, inline: the zone, its state (an implicitly-open
        # zone with room needs no checks and only its LRU restamp) and,
        # striped, each page's block.
        zones = self.zones
        if not 0 <= zone_id < len(zones):
            self.zone(zone_id)  # raises the range error
        zone = zones[zone_id]
        state = zone.state
        start_wp = zone.wp
        if state is not ZoneState.IMPLICIT_OPEN or npages > zone.capacity_pages - start_wp:
            zone.check_writable(npages)
        if offset is not None and offset != start_wp:
            raise WritePointerError(
                f"write at offset {offset} but zone {zone_id} wp is {start_wp}"
            )
        if state is ZoneState.IMPLICIT_OPEN:
            self._open_stamp[zone_id] = self._open_clock  # _mark_open, inline
            self._open_clock += 1
        elif state is not ZoneState.EXPLICIT_OPEN:
            self._ensure_open_for_write(zone)
        nand = self.nand
        ppb = self.geometry.flash.pages_per_block
        blocks = self.ftl.live_blocks(zone_id)
        width = len(blocks)
        ops: list[FlashOp] = []
        if not build_ops and nand.faults is None and data is None:
            if npages == 1 and self.striped:
                nand.program_run(blocks[start_wp % width], 1, cause)
            else:
                for block, count in self._runs_of(zone_id, start_wp, npages):
                    nand.program_run(block, count, cause)
        else:
            for i in range(npages):
                lane = start_wp + i
                if self.striped:
                    page = blocks[lane % width] * ppb + lane // width
                else:
                    page = self._page_of(zone_id, lane)
                try:
                    latency = nand.program(page, cause, data[i] if per_page else data)
                except ProgramFaultError:
                    # The one fault contract: the burn broke the zone's
                    # offset<->flash correspondence; the pages before it
                    # stay durable and the zone degrades.
                    self._degrade_read_only(zone, durable_pages=i)
                    raise
                if build_ops:
                    ops.append(FlashOp(OpKind.PROGRAM, page // ppb, page, latency))
        old_state = zone.state
        zone.advance(npages)
        if self.tracer.enabled:
            # One command-level event for the whole write (count=npages);
            # the per-page view is the flash.nand stream beneath it.
            self.tracer.publish(
                FlashOpEvent(
                    "zns.device", "program",
                    block=self.block_of_offset(zone_id, start_wp),
                    count=npages, nbytes=npages * self.geometry.flash.page_size,
                    cause=cause,
                )
            )
        if zone.state is ZoneState.FULL:
            self._note_no_longer_open(zone_id)
            self._publish_transition(zone, old_state, "write-full")
        return ops

    def _runs_of(self, zone_id: int, start: int, npages: int) -> list[tuple[int, int]]:
        """A command's pages as per-block runs ``(block, count)``, in lane order."""
        blocks = self.ftl.live_blocks(zone_id)
        if self.striped:
            width = len(blocks)
            return [
                (blocks[(start + j) % width], -(-(npages - j) // width))
                for j in range(min(width, npages))
            ]
        ppb = self.geometry.flash.pages_per_block
        runs = []
        done = 0
        while done < npages:
            index, within = divmod(start + done, ppb)
            count = min(ppb - within, npages - done)
            runs.append((blocks[index], count))
            done += count
        return runs

    def append(
        self, zone_id: int, npages: int = 1, data: Any = None, build_ops: bool = True
    ) -> tuple[int, list[FlashOp]]:
        """Zone append: device assigns the offset (paper §4.2).

        Returns ``(assigned_offset, ops)``. Semantically identical to a
        write at the current pointer, but the caller never names an
        offset, so concurrent appenders cannot race.
        """
        ops = self.write(zone_id, npages, data=data, build_ops=build_ops)
        # write() checked zone_id; it began npages below where the pointer stands.
        assigned = self.zones[zone_id].wp - npages
        if self.tracer.enabled:
            self.tracer.publish(
                ZoneAppendEvent("zns.device", zone_id, assigned, npages=npages)
            )
        return assigned, ops

    def read(
        self, zone_id: int, offset: int, cause: str = "host", build_ops: bool = True
    ) -> tuple[Any, FlashOp | None]:
        """Read one page at (zone, offset below the write pointer), booked under ``cause``.

        Returns ``(payload, op)``; ``op`` is ``None`` with ``build_ops=False``.
        """
        if self.faults is not None:
            self._poll_faults()
        zones = self.zones
        if not 0 <= zone_id < len(zones):
            self.zone(zone_id)  # raises the range error
        zone = zones[zone_id]
        if not 0 <= offset < zone.wp or zone.state is ZoneState.OFFLINE:
            zone.check_readable(offset)  # raises
        ppb = self.geometry.flash.pages_per_block
        if self.striped:
            # ``_page_of``'s striped case, inline; offset < wp fits the zone.
            blocks = self.ftl.live_blocks(zone_id)
            block = blocks[offset % len(blocks)]
            page = block * ppb + offset // len(blocks)
        else:
            page = self._page_of(zone_id, offset)
            block = page // ppb
        payload, latency = self.nand.read(page, cause)
        if self.tracer.enabled:
            self.tracer.publish(
                FlashOpEvent(
                    "zns.device", "read", block=block, page=page,
                    nbytes=self.geometry.flash.page_size, latency_us=latency, cause=cause,
                )
            )
        if not build_ops:
            return payload, None
        return payload, FlashOp(OpKind.READ, block, page, latency)

    def simple_copy(
        self, sources: list[tuple[int, int]], dst_zone_id: int, build_ops: bool = True
    ) -> tuple[int, list[FlashOp]]:
        """NVMe simple copy: device-managed copy into a destination zone.

        ``sources`` is a list of (zone, offset) pages. Data moves inside
        the device -- no host PCIe transfer (ops carry
        ``uses_channel=False``), which is what makes host-side GC over ZNS
        performance-competitive (paper §2.3). Returns the destination
        start offset and the op records (``[]`` with ``build_ops=False``).
        """
        if not sources:
            raise ValueError("simple_copy requires at least one source")
        if self.faults is not None:
            self._poll_faults()
        # Resolved once, inline, as in write and read: the destination, its
        # state and block list, then each source's zone and page.
        zones = self.zones
        if not 0 <= dst_zone_id < len(zones):
            self.zone(dst_zone_id)  # raises the range error
        dst = zones[dst_zone_id]
        count = len(sources)
        state = dst.state
        start = dst.wp
        if state is not ZoneState.IMPLICIT_OPEN or count > dst.capacity_pages - start:
            dst.check_writable(count)
        # Validate every source before touching flash so a bad source list
        # fails atomically: no destination page is programmed for a
        # command that raises.
        for src_zone_id, src_offset in sources:
            if not 0 <= src_zone_id < len(zones):
                self.zone(src_zone_id)  # raises the range error
            src = zones[src_zone_id]
            if not 0 <= src_offset < src.wp or src.state is ZoneState.OFFLINE:
                src.check_readable(src_offset)  # raises
        if state is ZoneState.IMPLICIT_OPEN:
            self._open_stamp[dst_zone_id] = self._open_clock  # _mark_open, inline
            self._open_clock += 1
        elif state is not ZoneState.EXPLICIT_OPEN:
            self._ensure_open_for_write(dst)
        nand = self.nand
        ppb = self.geometry.flash.pages_per_block
        live_blocks = self.ftl.live_blocks
        striped = self.striped
        dst_blocks = live_blocks(dst_zone_id)
        dst_width = len(dst_blocks)
        blocks_of = None  # the zone src_blocks belongs to
        ops: list[FlashOp] = []
        for i, (src_zone_id, src_offset) in enumerate(sources):
            if src_zone_id != blocks_of:
                blocks_of = src_zone_id
                src_blocks = live_blocks(src_zone_id)
                src_width = len(src_blocks)
            # ``_page_of``, inline: every offset is below its zone's write
            # pointer, so it lies inside the zone's blocks.
            lane = start + i
            if striped:
                src_page = src_blocks[src_offset % src_width] * ppb + src_offset // src_width
                dst_page = dst_blocks[lane % dst_width] * ppb + lane // dst_width
            else:
                src_page = src_blocks[src_offset // ppb] * ppb + src_offset % ppb
                dst_page = dst_blocks[lane // ppb] * ppb + lane % ppb
            # Device-internal movement: sense + program without channel
            # use. The sense is not a host read; the command accounts for
            # itself below.
            payload = nand.sense_for_copy(src_page)
            try:
                latency = nand.program(dst_page, "reclaim", payload)
            except ProgramFaultError:
                self._degrade_read_only(dst, durable_pages=i)
                raise
            if build_ops:
                ops.append(
                    FlashOp(OpKind.COPY, dst_page // ppb, dst_page, latency, uses_channel=False)
                )
        old_state = dst.state
        dst.advance(count)
        if self.tracer.enabled:
            self.tracer.publish(
                FlashOpEvent(
                    "zns.device", "copy", block=self.block_of_offset(dst_zone_id, start),
                    count=count, nbytes=count * self.page_size, cause="reclaim",
                )
            )
        if dst.state is ZoneState.FULL:
            self._note_no_longer_open(dst_zone_id)
            self._publish_transition(dst, old_state, "write-full")
        return start, ops

    # -- Consistency checking (used by property tests) -----------------------------

    def check_invariants(self) -> None:
        """Assert structural invariants; raises AssertionError on violation."""
        self.nand.check_invariants()
        self.ftl.check_invariants()
        ppb = self.geometry.flash.pages_per_block
        for zone in self.zones:
            z, state = zone.zone_id, zone.state
            assert 0 <= zone.wp <= zone.capacity_pages <= zone.size_pages, (
                f"zone {z} wp {zone.wp} outside capacity {zone.capacity_pages}"
            )
            if state is ZoneState.EMPTY:
                assert zone.wp == 0, f"empty zone {z} has wp {zone.wp}"
            elif state is ZoneState.CLOSED:
                assert zone.wp > 0, f"closed zone {z} has nothing written"
            if state.is_active:
                assert zone.wp < zone.capacity_pages, f"active zone {z} is at capacity"
            if state in (ZoneState.READ_ONLY, ZoneState.OFFLINE):
                # A program fault burned a page past the write pointer, or
                # the zone's data is gone: flash no longer tracks wp.
                continue
            blocks = self.ftl.blocks_of_zone(z)
            assert zone.capacity_pages == len(blocks) * ppb, f"zone {z} capacity != blocks"
            for i, block in enumerate(blocks):
                if self.striped:
                    # Offsets i, i + width, ... below wp land on lane i.
                    expected = max(0, -((zone.wp - i) // -len(blocks)))
                else:
                    expected = min(max(zone.wp - i * ppb, 0), ppb)
                assert self.nand.write_offset(block) == expected, (
                    f"zone {z} block {block} at offset {self.nand.write_offset(block)}, "
                    f"wp {zone.wp} implies {expected}"
                )
        implicit = set(self.zones_in_state(ZoneState.IMPLICIT_OPEN))
        assert set(self._open_stamp) == implicit, "open-LRU out of step with implicitly-open zones"
        assert self.open_count <= self.geometry.open_limit, "open limit exceeded"
        assert self.active_count <= self.geometry.max_active_zones, "active limit exceeded"


class TimedZNSDevice(TimedFrontEnd):
    """DES wrapper around a ZNS device: requests with plane/channel contention.

    Regular writes to a zone serialize on that zone's host-side write
    lock (the write-pointer coordination burden the spec assigns to the
    host); appends skip the lock and contend only for flash resources.

    When the device has a :class:`~repro.flash.timing.ZoneMgmtTiming`,
    management commands (reset/finish) additionally hold a per-zone
    *management gate* for their full duration: reads, writes, and
    appends to that zone queue behind the in-flight command -- the
    hidden cost the paper's §2.4-style interference argument elides for
    ZNS. The published :class:`~repro.obs.events.ZoneMgmtEvent` reports
    the full zone-hold span and how many requests queued behind it.
    """

    def __init__(self, engine: Engine, device: ZNSDevice, prioritize_reads: bool = False):
        self.device = device
        service = FlashServiceModel(
            engine, device.geometry.flash, timing=device.nand.timing,
            prioritize_reads=prioritize_reads, tracer=device.tracer,
        )
        super().__init__(engine, service)
        self._zone_locks = [Resource(engine) for _ in range(device.zone_count)]
        self._mgmt_gates: list[Resource] | None = None
        if device.mgmt_timing is not None:
            # We publish the reset/finish events (we know hold span and
            # queued-behind); the inner device stays silent for those.
            device._defer_mgmt_events = True
            self._mgmt_gates = [Resource(engine) for _ in range(device.zone_count)]

    def submit_read(self, zone_id: int, offset: int):
        return self._submit("read", zone_id, 1, lambda: [self.device.read(zone_id, offset)[1]])

    def submit_write(self, zone_id: int, npages: int = 1):
        """A regular write holds the zone's lock across the whole request.

        The lock models host-side write-pointer coordination (§4.2): the
        next writer cannot compute its offset until this write is
        durable, so a write's queueing is the lock wait.
        """
        return self._submit(
            "write", zone_id, npages, lambda: self.device.write(zone_id, npages),
            lock=self._zone_locks[zone_id],
        )

    def submit_append(self, zone_id: int, npages: int = 1):
        """Zone append: offset assignment is instant; programs run unlocked.

        Multiple in-flight appends to one zone land on different blocks of
        the zone's stripe, so they program planes in parallel.
        """
        return self._submit(
            "append", zone_id, npages, lambda: self.device.append(zone_id, npages)[1]
        )

    def submit_reset(self, zone_id: int):
        return self.engine.process(self._mgmt_proc(zone_id, "reset", self.device.reset_zone))

    def submit_finish(self, zone_id: int):
        return self.engine.process(self._mgmt_proc(zone_id, "finish", self.device.finish_zone))

    def _submit(
        self, op: str, zone_id: int, npages: int, command: Callable[[], list],
        lock: Resource | None = None,
    ):
        """A host request to ``zone_id``, behind its management gate if any."""
        gate = None if self._mgmt_gates is None else self._mgmt_gates[zone_id]
        nbytes = npages * self.device.page_size
        return self.engine.process(self._request(op, nbytes, command, lock=lock, gate=gate))

    def _mgmt_proc(self, zone_id: int, action: str, command) -> Generator:
        """Run a management command; with a gate, holding it throughout.

        The command-processing overhead (the MGMT op) runs first as a
        die-lane hold; erases then proceed in parallel across planes.
        With management timing attached, requests that arrived while the
        zone's gate was held are counted as ``queued_behind`` on the
        published event.
        """
        gate = None if self._mgmt_gates is None else self._mgmt_gates[zone_id]
        if gate is not None:
            req = yield gate.request()
        start = self.engine.now
        try:
            ops = command(zone_id)
            for op in ops:
                if op.kind is OpKind.MGMT:
                    yield from self.engine.inline(self.service.execute(op))
            procs = [
                self.engine.process(self.service.execute(op))
                for op in ops
                if op.kind is not OpKind.MGMT
            ]
            for proc in procs:
                yield proc
        finally:
            if gate is not None:
                queued = gate.queue_length
                gate.release(req)
        if gate is not None and self.tracer.enabled:
            self.tracer.publish(
                ZoneMgmtEvent(
                    "zns.device", action, zone_id,
                    latency_us=self.engine.now - start,
                    queued_behind=queued, t=self.engine.now,
                )
            )


__all__ = ["TimedZNSDevice", "ZNSDevice"]
