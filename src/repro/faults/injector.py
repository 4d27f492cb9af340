"""The runtime half of fault injection: seeded draws and schedules.

A :class:`FaultInjector` is built from a :class:`~repro.faults.plan.FaultPlan`
and consulted by :class:`~repro.flash.nand.NandArray` (and, for zone
offlining, :class:`~repro.zns.device.ZNSDevice`) on each operation. It
owns three pieces of state:

- a :class:`~repro.sim.rng.Draws` over a NumPy generator seeded from the
  plan (every probabilistic draw);
- a global flash-operation counter (``ops``) that scheduled faults key
  on, advanced once per page/block operation;
- tallies of every fault fired (:attr:`counts`), which experiments fold
  into their metrics.

Every fired fault publishes a typed
:class:`~repro.obs.events.FaultEvent` on the bound tracer, so fault
schedules show up in ``--trace`` output next to the operations they hit.

Hook contract (what the device layers rely on):

- ``on_program`` / ``on_erase`` decide *whether* the operation fails;
  the array itself performs the state transition (a failed program
  still burns its page, a failed erase retires the block). There is one
  program contract: writers under an armed injector program page by
  page; the array's runs, like its copies, are never fault-injected.
- ``on_read`` walks the ECC read-retry ladder and returns the extra
  sense latency, raising
  :class:`~repro.flash.errors.UncorrectableReadError` only when every
  rung fails. Internal GC/copy senses are never fault-injected -- a
  device that silently lost data while relocating it would corrupt the
  mapping invariants the experiments verify.
"""

from __future__ import annotations

import numpy as np

from repro.flash.errors import UncorrectableReadError
from repro.faults.plan import FaultPlan
from repro.obs.events import FaultEvent
from repro.obs.tracer import Tracer
from repro.sim.rng import Draws


class FaultInjector:
    """Draws faults per operation according to a :class:`FaultPlan`.

    One injector serves one device stack (it is advanced by every flash
    operation, like the tracer is shared by every layer). ``tracer`` may
    be bound after construction via :meth:`bind` when the stack wires
    itself up.
    """

    def __init__(self, plan: FaultPlan, tracer: Tracer | None = None):
        self.plan = plan
        self.tracer = tracer
        self.draws = Draws(np.random.default_rng(plan.seed))
        #: Global flash-operation counter; scheduled faults key on it.
        self.ops = 0
        #: Fault tallies by FaultEvent.fault name.
        self.counts: dict[str, int] = {}
        self._grown = sorted(plan.grown_bad_blocks)
        self._grown_next = 0
        # Blocks whose scheduled op_index has passed: next erase fails.
        self._pending_bad: set[int] = set()
        self._offline = sorted(plan.zone_offline_at)
        self._offline_next = 0
        self._stuck_schedule = sorted(plan.stuck_open_zones)
        self._stuck_next = 0
        # Zones currently stuck open -> rejected-attempt count so far.
        self._stuck: dict[int, int] = {}

    @property
    def armed(self) -> bool:
        return self.plan.armed

    def bind(self, tracer: Tracer) -> "FaultInjector":
        """Attach the stack's telemetry bus; returns self for chaining."""
        self.tracer = tracer
        return self

    # -- Internals -----------------------------------------------------------

    def _tick(self) -> None:
        self.ops += 1
        while self._grown_next < len(self._grown) and (
            self._grown[self._grown_next][0] <= self.ops
        ):
            self._pending_bad.add(self._grown[self._grown_next][1])
            self._grown_next += 1

    def _fire(
        self,
        fault: str,
        block: int | None = None,
        page: int | None = None,
        zone: int | None = None,
        retries: int = 0,
        latency_us: float = 0.0,
    ) -> None:
        self.counts[fault] = self.counts.get(fault, 0) + 1
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.publish(
                FaultEvent(
                    "faults.injector", fault, block, page, zone,
                    retries=retries, latency_us=latency_us, op_index=self.ops,
                )
            )

    def _spike(self) -> float:
        """Latency-spike penalty for one operation (0.0 when none fires)."""
        p = self.plan.latency_spike_prob
        if not p or self.draws.random() >= p:
            return 0.0
        self._fire("latency-spike", latency_us=self.plan.latency_spike_us)
        return self.plan.latency_spike_us

    def _ladder(self, block: int, page: int | None) -> float:
        """Walk the ECC retry ladder for one erroneous page.

        Returns the extra sense latency if some rung corrects the data;
        raises :class:`UncorrectableReadError` when the ladder runs out.
        """
        extra = 0.0
        success = self.plan.retry_success_prob
        for rung, cost in enumerate(self.plan.retry_ladder_us, start=1):
            extra += cost
            if self.draws.random() < success:
                self._fire("read-error", block, page, retries=rung, latency_us=extra)
                return extra
        self._fire(
            "read-uncorrectable", block, page,
            retries=len(self.plan.retry_ladder_us), latency_us=extra,
        )
        raise UncorrectableReadError(
            f"page {page} of block {block} uncorrectable after "
            f"{len(self.plan.retry_ladder_us)} read retries",
            latency_us=extra,
        )

    # -- Hooks consulted by NandArray ---------------------------------------

    def on_program(self, block: int, page: int, latency_us: float) -> tuple[bool, float]:
        """Decide one program; returns ``(fault, extra_latency_us)``.

        On fault the caller burns the page (write offset advances, data
        bad) and raises; ``extra`` only applies to the success path.
        """
        self._tick()
        if self.plan.program_fail_prob and self.draws.random() < self.plan.program_fail_prob:
            self._fire("program-fail", block, page, latency_us=latency_us)
            return True, 0.0
        return False, self._spike()

    def on_erase(self, block: int) -> bool:
        """Decide one erase; True means the block fails and is retired."""
        self._tick()
        if block in self._pending_bad:
            self._pending_bad.discard(block)
            self._fire("grown-bad-block", block)
            return True
        if self.plan.erase_fail_prob and self.draws.random() < self.plan.erase_fail_prob:
            self._fire("erase-fail", block)
            return True
        return False

    def on_read(self, block: int, page: int) -> float:
        """Extra latency for one host read (retry ladder + spikes).

        Raises :class:`UncorrectableReadError` if the page cannot be
        corrected at any retry level.
        """
        self._tick()
        extra = self._spike()
        p = self.plan.read_error_prob
        if p and self.draws.random() < p:
            extra += self._ladder(block, page)
        return extra

    # -- Zone-management hooks (consulted by ZNSDevice) ----------------------

    def on_zone_reset(self, zone: int) -> bool:
        """Decide one zone reset; True means it fails transiently.

        The decision lands *before* any erase is issued (pre-mutation): a
        failed reset leaves zone and flash state untouched and the host
        simply retries.
        """
        self._tick()
        if self.plan.reset_fail_prob and self.draws.random() < self.plan.reset_fail_prob:
            self._fire("reset-fail", zone=zone)
            return True
        return False

    def on_zone_finish(self, zone: int) -> bool:
        """Decide one zone finish; True means the command times out.

        A timeout is pre-mutation (the zone is not sealed) but consumes
        ``plan.finish_timeout_us`` of device time, which the device's
        :class:`~repro.zns.errors.ZoneFinishTimeoutError` carries.
        """
        self._tick()
        if (
            self.plan.finish_timeout_prob
            and self.draws.random() < self.plan.finish_timeout_prob
        ):
            self._fire(
                "finish-timeout", zone=zone, latency_us=self.plan.finish_timeout_us
            )
            return True
        return False

    def zone_stuck(self, zone: int) -> bool:
        """True if ``zone`` is stuck open and this attempt is rejected.

        Each call while stuck counts one rejected management attempt;
        after ``plan.stuck_release_after`` rejections the controller's
        internal recovery releases the zone and commands flow again.
        """
        while self._stuck_next < len(self._stuck_schedule) and (
            self._stuck_schedule[self._stuck_next][0] <= self.ops
        ):
            self._stuck.setdefault(self._stuck_schedule[self._stuck_next][1], 0)
            self._stuck_next += 1
        if zone not in self._stuck:
            return False
        self._stuck[zone] += 1
        if self._stuck[zone] > self.plan.stuck_release_after:
            del self._stuck[zone]
            return False
        self._fire("stuck-open", zone=zone, retries=self._stuck[zone])
        return True

    # -- Scheduled zone faults (polled by ZNSDevice) -------------------------

    def due_zone_offlines(self) -> list[int]:
        """Zones whose scheduled offline point has passed; fires each once."""
        due: list[int] = []
        while self._offline_next < len(self._offline) and (
            self._offline[self._offline_next][0] <= self.ops
        ):
            zone = self._offline[self._offline_next][1]
            self._offline_next += 1
            self._fire("zone-offline", zone=zone)
            due.append(zone)
        return due

    # -- Reporting -----------------------------------------------------------

    def summary(self) -> dict[str, int]:
        """Fault tallies by name (sorted copy, JSON-safe)."""
        return {name: self.counts[name] for name in sorted(self.counts)}


__all__ = ["FaultInjector"]
