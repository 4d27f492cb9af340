"""Fingerprints of what the goldens cannot see: fleet counters, E13's caches.

The goldens carry the fleet's summary columns and E13's rounded rows, so
a counter no row reports (``reads_skipped``, ``objects_deleted``,
``append_faults``, ``writes_refused``, ``zones_offlined``,
``reset_retries``, the lifecycle counters) or a cache statistic E13
rounds away could drift unseen. This pins every ``fleet.*`` counter and
maximum of small E16- and E17-shaped racks -- both arms each, with their
faults armed, plus one harsh ZNS rack that loses whole tenants -- and
the :class:`~repro.apps.cache.CacheStats`, ``relocated_pages`` and NAND
op counts of a shrunken E13 run of each cache. The numbers are the
simulator's own output at the time they were recorded; a change that
moves one changes physics and must say so.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.block.factory import DeviceSpec
from repro.experiments import ExperimentConfig, e13_cache
from repro.experiments.e16_fleet_serving import fleet_plan
from repro.experiments.e17_reset_pressure import mgmt_plan
from repro.fleet import FleetSpec, rack, simulate_shard
from repro.workloads.synthetic import zipfian_stream

_FLASH = (("blocks_per_plane", 8),)
_CONV = DeviceSpec(
    kind="conventional-ftl", geometry="small", flash=_FLASH, ftl=(("op_ratio", 0.18),)
)
_ZNS = DeviceSpec(
    kind="zns", geometry="small", flash=_FLASH, blocks_per_zone=2, max_active_zones=14
)
_BURSTY = dict(idle_events=2, burst_events=16, heavy_every=4, heavy_factor=2)


def _e16(device: DeviceSpec, scale: float, **overrides) -> FleetSpec:
    fields = dict(
        mix=((device.with_faults(fleet_plan(0), scale), 2),),
        tenants=4, placement="pack", ticks=60, warmup_ticks=120,
        utilization=0.9, seed=0, **_BURSTY,
    )  # fmt: skip
    fields.update(overrides)
    return FleetSpec(**fields)


def _e17(lifecycle: bool, scale: float, **overrides) -> FleetSpec:
    device = replace(_ZNS, zone_mgmt=(("reset_us", 5_000.0),))
    fields = dict(
        mix=((device.with_faults(mgmt_plan(0), scale), 2),),
        tenants=4, ticks=60, warmup_ticks=120, utilization=0.9, seed=0,
        lifetime_scale=0.05, zone_lifecycle=lifecycle,
    )  # fmt: skip
    fields.update(overrides)
    return FleetSpec(**fields)


#: name -> one rack's arms (one simulate call each, so they share a warm-up).
RACKS = {
    "e16-conventional": [_e16(_CONV, 1.0), _e16(_CONV, 50.0)],
    "e16-zns": [_e16(_ZNS, 1.0), _e16(_ZNS, 4.0)],
    "e16-zns-harsh": [_e16(_ZNS, 50.0, tenants=8, ticks=200)],
    "e17-zns-naive": [_e17(False, 1.0), _e17(False, 4.0)],
    "e17-zns-managed": [_e17(True, 1.0), _e17(True, 4.0)],
}

EXPECTED_RACKS: dict[str, list[dict]] = {
    "e16-conventional": [
        {
            "counters": {
                "fleet.capacity_units": 128,
                "fleet.capacity_units_lost": 0,
                "fleet.devices": 2,
                "fleet.flash_pages_written": 1250,
                "fleet.host_pages_written": 720,
                "fleet.objects_deleted": 438,
                "fleet.request.read.requests": 720,
                "fleet.request.write.requests": 720
            },
            "maxima": {
                "fleet.device_read_p99_us_max": 23994.587890625004,
                "fleet.device_wa_max": 1.8419452887537995
            }
        },
        {
            "counters": {
                "fleet.capacity_units": 128,
                "fleet.capacity_units_lost": 41,
                "fleet.devices": 2,
                "fleet.devices_failed": 2,
                "fleet.flash_pages_written": 8597,
                "fleet.host_pages_written": 406,
                "fleet.objects_deleted": 249,
                "fleet.reads_lost": 2,
                "fleet.request.read.requests": 375,
                "fleet.request.write.requests": 406
            },
            "maxima": {
                "fleet.device_read_p99_us_max": 37666.17343749999,
                "fleet.device_wa_max": 31.42622950819672
            }
        }
    ],
    "e16-zns": [
        {
            "counters": {
                "fleet.append_faults": 1,
                "fleet.capacity_units": 64,
                "fleet.capacity_units_lost": 0,
                "fleet.devices": 2,
                "fleet.flash_pages_written": 720,
                "fleet.host_pages_written": 720,
                "fleet.objects_deleted": 466,
                "fleet.request.read.requests": 720,
                "fleet.request.write.requests": 720,
                "fleet.zone_resets": 7
            },
            "maxima": {
                "fleet.device_read_p99_us_max": 15419.313671875001,
                "fleet.device_wa_max": 1.0
            }
        },
        {
            "counters": {
                "fleet.append_faults": 7,
                "fleet.capacity_units": 64,
                "fleet.capacity_units_lost": 0,
                "fleet.devices": 2,
                "fleet.flash_pages_written": 720,
                "fleet.host_pages_written": 720,
                "fleet.objects_deleted": 466,
                "fleet.reads_lost": 1,
                "fleet.request.read.requests": 720,
                "fleet.request.write.requests": 720,
                "fleet.zone_resets": 11
            },
            "maxima": {
                "fleet.device_read_p99_us_max": 20508.251953125,
                "fleet.device_wa_max": 1.0
            }
        }
    ],
    "e16-zns-harsh": [
        {
            "counters": {
                "fleet.append_faults": 534,
                "fleet.capacity_units": 64,
                "fleet.capacity_units_lost": 35,
                "fleet.devices": 2,
                "fleet.flash_pages_written": 4697,
                "fleet.host_pages_written": 4697,
                "fleet.objects_deleted": 1553,
                "fleet.reads_lost": 37,
                "fleet.reads_skipped": 327,
                "fleet.request.read.requests": 4471,
                "fleet.request.write.requests": 4703,
                "fleet.writes_refused": 518,
                "fleet.zone_resets": 565,
                "fleet.zones_offlined": 33
            },
            "maxima": {
                "fleet.device_read_p99_us_max": 1053523.4496093749,
                "fleet.device_wa_max": 1.0
            }
        }
    ],
    "e17-zns-naive": [
        {
            "counters": {
                "fleet.capacity_units": 64,
                "fleet.capacity_units_lost": 0,
                "fleet.devices": 2,
                "fleet.flash_pages_written": 720,
                "fleet.host_pages_written": 720,
                "fleet.objects_deleted": 466,
                "fleet.request.read.requests": 720,
                "fleet.request.write.requests": 720,
                "fleet.reset_retries": 1,
                "fleet.zone_resets": 6
            },
            "maxima": {
                "fleet.device_read_p99_us_max": 46570.798828125,
                "fleet.device_wa_max": 1.0
            }
        },
        {
            "counters": {
                "fleet.capacity_units": 64,
                "fleet.capacity_units_lost": 0,
                "fleet.devices": 2,
                "fleet.flash_pages_written": 232,
                "fleet.host_pages_written": 232,
                "fleet.objects_deleted": 300,
                "fleet.request.read.requests": 720,
                "fleet.request.write.requests": 720,
                "fleet.reset_retries": 24888,
                "fleet.writes_refused": 488,
                "fleet.zone_resets": 8296
            },
            "maxima": {
                "fleet.device_read_p99_us_max": 96316884.23632812,
                "fleet.device_wa_max": 1.0
            }
        }
    ],
    "e17-zns-managed": [
        {
            "counters": {
                "fleet.capacity_units": 64,
                "fleet.capacity_units_lost": 0,
                "fleet.devices": 2,
                "fleet.flash_pages_written": 720,
                "fleet.host_pages_written": 720,
                "fleet.lifecycle.reserve_hits": 18,
                "fleet.lifecycle.reserve_misses": 1,
                "fleet.lifecycle.resets_ahead": 21,
                "fleet.lifecycle.retries": 1,
                "fleet.objects_deleted": 466,
                "fleet.request.read.requests": 720,
                "fleet.request.write.requests": 720,
                "fleet.zone_resets": 6
            },
            "maxima": {
                "fleet.device_read_p99_us_max": 33893.572265625,
                "fleet.device_wa_max": 1.0
            }
        },
        {
            "counters": {
                "fleet.capacity_units": 64,
                "fleet.capacity_units_lost": 34,
                "fleet.devices": 2,
                "fleet.flash_pages_written": 456,
                "fleet.host_pages_written": 456,
                "fleet.lifecycle.reserve_hits": 15,
                "fleet.lifecycle.reserve_misses": 31,
                "fleet.lifecycle.resets_ahead": 15,
                "fleet.lifecycle.retries": 136,
                "fleet.objects_deleted": 285,
                "fleet.reads_skipped": 132,
                "fleet.request.read.requests": 588,
                "fleet.request.write.requests": 458,
                "fleet.writes_refused": 264,
                "fleet.zone_resets": 33,
                "fleet.zones_quarantined": 30
            },
            "maxima": {
                "fleet.device_read_p99_us_max": 425008.6023437499,
                "fleet.device_wa_max": 1.0
            }
        }
    ]
}

EXPECTED_E13: dict[str, dict] = {
    "set-assoc": {
        "stats": {
            "gets": 30000,
            "hits": 17711,
            "insertions": 12289,
            "evictions": 66,
            "readmissions": 0
        },
        "nand": {
            "read.host": 17711,
            "program.host": 12289,
            "erase.gc": 143,
            "copy.gc": 4788
        }
    },
    "zone-log": {
        "stats": {
            "gets": 30000,
            "hits": 16660,
            "insertions": 13340,
            "evictions": 5308,
            "readmissions": 68
        },
        "relocated_pages": 68,
        "nand": {
            "read.host": 16660,
            "program.host": 13408,
            "erase.zone-mgmt": 84
        }
    }
}


def _fingerprint(frame) -> dict:
    return {
        "counters": dict(sorted(frame.counters.items())),
        "maxima": dict(sorted(frame.maxima.items())),
    }


@pytest.mark.parametrize("name", list(RACKS))
def test_fleet_counters(name, monkeypatch):
    """Every arm's counters, with each tenant's cache (and lifecycle
    manager) checked at the end of its measured span."""
    measure = rack._ServedDevice.measure

    def checked(device, spec, device_id):
        frame = measure(device, spec, device_id)
        for tenant in device.tenants:
            tenant.cache.check_invariants()
        for lifecycle in device.managed:
            lifecycle.check_invariants()
        return frame

    monkeypatch.setattr(rack._ServedDevice, "measure", checked)
    assert [_fingerprint(frame) for frame in simulate_shard(RACKS[name])] == EXPECTED_RACKS[name]


def test_the_racks_reach_every_tenant_path():
    """The fingerprints above are only worth something if the racks walk
    the paths no golden row reports."""
    seen = set()
    for frames in EXPECTED_RACKS.values():
        for frame in frames:
            seen.update(key for key, value in frame["counters"].items() if value)
    for counter in (
        "reads_skipped", "objects_deleted", "append_faults", "writes_refused",
        "zones_offlined", "reset_retries", "zones_quarantined", "reads_lost",
        "devices_failed", "lifecycle.reserve_hits",
    ):  # fmt: skip
        assert f"fleet.{counter}" in seen, counter


_STATS = ("gets", "hits", "insertions", "evictions", "readmissions")


def _stats(cache) -> dict[str, int]:
    return {name: getattr(cache.stats, name) for name in _STATS}


def _ops(nand) -> dict[str, int]:
    """The NAND's non-zero op counts, as ``op.cause``."""
    return {
        f"{op}.{cause}": count
        for op, by_cause in nand.counters.ops.items()
        for cause, count in by_cause.items()
        if count
    }


def _shrunken_e13(monkeypatch) -> dict:
    """E13 at 30,000 requests; each cache's stats and its NAND's op counts."""
    caches, stacks = [], []
    real_build = e13_cache.build_stack

    def build(spec):
        stacks.append(real_build(spec))
        return stacks[-1]

    def keep(cls):
        def make(*args, **kwargs):
            caches.append(cls(*args, **kwargs))
            return caches[-1]

        return make

    monkeypatch.setattr(e13_cache, "build_stack", build)
    monkeypatch.setattr(e13_cache, "SetAssociativeCache", keep(e13_cache.SetAssociativeCache))
    monkeypatch.setattr(e13_cache, "ZoneLogCache", keep(e13_cache.ZoneLogCache))
    monkeypatch.setattr(
        e13_cache, "zipfian_stream", lambda u, n, **kw: zipfian_stream(u, 30_000, **kw)
    )
    e13_cache.run(ExperimentConfig("E13"))
    set_cache, log_cache = caches
    conv, zns = stacks
    return {
        "set-assoc": {"stats": _stats(set_cache), "nand": _ops(conv.ftl.nand)},
        "zone-log": {
            "stats": _stats(log_cache),
            "relocated_pages": log_cache.relocated_pages,
            "nand": _ops(zns.nand),
        },
    }


def test_e13_caches(monkeypatch):
    assert _shrunken_e13(monkeypatch) == EXPECTED_E13
