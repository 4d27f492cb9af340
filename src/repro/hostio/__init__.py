"""Host-side I/O machinery: reclaim scheduling, zone budgeting, lifecycle.

These are the paper's §4 research-agenda knobs, the ones that simply do not
exist on a conventional SSD: when host-driven reclaim is allowed to touch
flash (:mod:`repro.hostio.scheduler`), how the scarce active-zone budget
is shared among tenants (:mod:`repro.hostio.zonealloc`), and how the host
survives zone management being slow and failure-prone
(:mod:`repro.hostio.zonelife`).

The timed front end every DES stack shares (:mod:`repro.hostio.frontend`)
and the timed block-on-ZNS stack (:mod:`repro.hostio.timed`) are imported
from their modules: the ZNS device imports the front end, so this package
cannot import the stack that builds a ZNS device. So is the zone log that
dm-zoned, the placement store and the LSM zoned backend share
(:mod:`repro.hostio.zonelog`).
"""

from repro.hostio.scheduler import (
    AlwaysOnScheduler,
    IdleWindowScheduler,
    ReclaimScheduler,
    make_scheduler,
)
from repro.hostio.zonealloc import (
    DynamicAllocator,
    FairShareAllocator,
    StaticPartitionAllocator,
    ZoneBudgetAllocator,
    make_allocator,
)
from repro.hostio.zonelife import (
    ZoneLifecycleManager,
    ZoneLifecyclePolicy,
    ZoneLifecycleStats,
)

__all__ = [
    "AlwaysOnScheduler",
    "DynamicAllocator",
    "FairShareAllocator",
    "IdleWindowScheduler",
    "ReclaimScheduler",
    "StaticPartitionAllocator",
    "ZoneBudgetAllocator",
    "ZoneLifecycleManager",
    "ZoneLifecyclePolicy",
    "ZoneLifecycleStats",
    "make_allocator",
    "make_scheduler",
]
