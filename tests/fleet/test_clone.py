"""A copy of a device (or a cache) replays it, and E16/E17 arms may share a warm-up.

Every greedy victim tie goes to the lowest id (DESIGN.md §6), so a
stack's future is a function of its state alone: ``copy.deepcopy`` of an
aged stack, driven by the same seeded op stream as the original, must
end in the same place. That is what lets :func:`simulate_device` warm a
device once and measure every fault arm on its own copy; the second half
holds that sharing to the per-arm warm-ups it replaced, frame for frame.
"""

import copy

import pytest

from repro.apps.cache import FIBONACCI, SetAssociativeCache, ZoneLogCache
from repro.apps.lsm import LSMConfig, LSMStore, ZoneFileBackend
from repro.block.factory import DeviceSpec, build_stack
from repro.experiments import e16_fleet_serving as e16
from repro.experiments import e17_reset_pressure as e17
from repro.fleet import FleetSpec, rack, simulate_shard
from repro.hostio.zonelife import ZoneLifecycleManager
from repro.placement import ZonedObjectStore
from repro.placement.hints import by_owner
from repro.sim.rng import make_rng
from repro.workloads.lifetime import ObjectLifetimeWorkload
from repro.zns.zone import ZoneState

_FLASH = (("blocks_per_plane", 8),)


def _churn_block(stack, seed: int, n: int) -> None:
    """``n`` seeded writes, one in ten a trim instead."""
    rng = make_rng(seed)
    ops = rng.integers(0, 10, n).tolist()
    lbas = rng.integers(0, stack.logical_pages, n).tolist()
    for op, lba in zip(ops, lbas):
        if op == 0:
            stack.trim(lba)
        else:
            stack.write(lba)


def _churn_zns(device, seed: int, n: int) -> None:
    """``n`` seeded appends over the first active-limit's worth of zones,
    resetting a zone instead when the append would not fit."""
    rng = make_rng(seed)
    zones = rng.integers(0, device.geometry.max_active_zones, n).tolist()
    sizes = rng.integers(1, 9, n).tolist()
    for zone, npages in zip(zones, sizes):
        state = device.zone(zone)
        if state.state is ZoneState.FULL or state.wp + npages > state.size_pages:
            device.reset_zone(zone)
        else:
            device.append(zone, npages)


_STACKS = {
    "conventional-ftl": (
        DeviceSpec(kind="conventional-ftl", geometry="small", flash=_FLASH), _churn_block
    ),
    "dftl": (
        DeviceSpec(kind="dftl", geometry="small", flash=_FLASH, cmt_bytes=2048), _churn_block
    ),
    "dmzoned": (
        DeviceSpec(kind="dmzoned", geometry="small", flash=_FLASH, blocks_per_zone=2),
        _churn_block,
    ),
    "zns": (
        DeviceSpec(
            kind="zns", geometry="small", flash=_FLASH, blocks_per_zone=2, max_active_zones=8
        ),
        _churn_zns,
    ),
}


@pytest.mark.parametrize("kind", list(_STACKS))
def test_a_copied_stack_replays_its_original(kind):
    spec, churn = _STACKS[kind]
    original = build_stack(spec)
    churn(original, seed=1, n=6_000)
    clone = copy.deepcopy(original)
    nand, clone_nand = _nand(original), _nand(clone)
    aged = nand.counters.snapshot()
    assert aged.count("erase") > 0  # aged: GC or reclaim is running

    churn(clone, seed=2, n=3_000)
    assert nand.counters == aged  # the copy shares no state
    churn(original, seed=2, n=3_000)

    assert clone_nand.counters == nand.counters != aged
    assert (clone_nand.write_offsets == nand.write_offsets).all()
    assert (clone_nand.wear.erase_counts == nand.wear.erase_counts).all()
    clone.check_invariants()
    original.check_invariants()


def _nand(stack):
    return stack.device.nand if hasattr(stack, "device") else stack.nand


def _zns(blocks_per_zone: int, flash=_FLASH):
    return build_stack(
        DeviceSpec(kind="zns", geometry="small", flash=flash, blocks_per_zone=blocks_per_zone)
    )


def _log_state(log) -> tuple:
    return (
        log.free, log.frontiers, log.live.tolist(), log.sealed.tolist(),
        sorted(log.dropped), log.resets, log.free_resets,
    )


def test_a_copied_placement_store_replays_its_original():
    store = ZonedObjectStore(_zns(1), hint_policy=by_owner)
    capacity = store.device.zone_count * store.device.geometry.pages_per_zone
    events = list(
        ObjectLifetimeWorkload(
            num_objects=capacity, owners=4, size_pages=2,
            lifetime_scale=0.85 * capacity / (8 * 2) / 7600.0, seed=3,
        ).events()
    )
    half = len(events) // 2

    def drive(target, part):
        for event in part:
            target.put(event) if event.kind == "create" else target.delete(event.obj_id)

    drive(store, events[:half])
    clone = copy.deepcopy(store)
    assert store.log.resets > 0  # aged: reclaim is running
    drive(clone, events[half:])
    drive(store, events[half:])
    assert _log_state(clone.log) == _log_state(store.log)
    assert clone.objects == store.objects
    assert clone.device.nand.counters == store.device.nand.counters
    clone.check_invariants()


def test_a_copied_lsm_zoned_backend_replays_its_original():
    config = LSMConfig(memtable_pages=4, level0_pages=16, level_multiplier=4, max_table_pages=4)
    # The lsm-zone fingerprint rig's stack: it relocates tables.
    store = LSMStore(ZoneFileBackend(_zns(2, (("blocks_per_plane", 4),))), config)
    keys = make_rng(5).integers(0, 24_000, 30_000).tolist()
    for i, key in enumerate(keys[:15_000]):
        store.put(key, i)
    clone = copy.deepcopy(store)
    assert store.backend.log.resets > 0
    for target in (clone, store):
        for i, key in enumerate(keys[15_000:]):
            target.put(key, i)
    backend, copied = store.backend, clone.backend
    assert _log_state(copied.log) == _log_state(backend.log)
    # Table ids come from one process-wide counter, so compare by level.
    assert [[t.handle for t in level] for level in clone.levels] == [
        [t.handle for t in level] for level in store.levels
    ]
    assert copied.device.nand.counters == backend.device.nand.counters
    assert copied.device.nand.counters.count("program", "reclaim") > 0
    clone.check_invariants()


def _cache_state(cache) -> tuple:
    if isinstance(cache, ZoneLogCache):
        layout = (cache.zones, cache.cursor, cache._location, cache._zone_keys)
    else:
        layout = cache._sets
    return (cache._keys, cache._pos, cache.stats, layout)


def _churn_cache(cache, seed: int, n: int) -> None:
    """``n`` seeded fleet-style requests: admit, delete or read a live key."""
    rng = make_rng(seed)
    for op, key in zip(rng.integers(0, 4, n).tolist(), rng.integers(0, 3_000, n).tolist()):
        if op == 0:
            cache.delete(key)
        elif op == 1 and cache._keys:
            cache.read(cache.sample(lambda n: int(rng.integers(0, n))), build_ops=True)
        else:
            cache.admit(key, build_ops=True)


@pytest.mark.parametrize("zoned", [False, True], ids=["set-associative", "zone-log"])
def test_a_copied_cache_replays_its_original(zoned):
    """The fleet's tenant copy is each cache's own ``__deepcopy__``: the
    device through the memo, the containers shallowly."""
    if zoned:
        device = _zns(2)
        lifecycle = ZoneLifecycleManager(device)
        cache = ZoneLogCache(device, readmit_hot=False, zones=list(range(12)), lifecycle=lifecycle)
    else:
        device = build_stack(_STACKS["conventional-ftl"][0])
        cache = SetAssociativeCache(
            device, ways=1, num_sets=2_000, base=500, multiplier=FIBONACCI
        )
    _churn_cache(cache, seed=1, n=6_000)
    clone = copy.deepcopy(cache)
    aged = copy.deepcopy(_cache_state(cache))
    _churn_cache(clone, seed=2, n=3_000)
    assert _cache_state(cache) == aged  # the copy shares no state
    _churn_cache(cache, seed=2, n=3_000)
    assert _cache_state(clone) == _cache_state(cache) != aged
    assert clone.device.nand.counters == cache.device.nand.counters
    cache.check_invariants()
    clone.check_invariants()


_E16_TINY = dict(devices=2, tenants=4, ticks=60, warmup=120, seed=0)
_E17_TINY = dict(devices=2, tenants=4, ticks=60, warmup=120, seed=0)


def _e16_specs(arm: str) -> list[FleetSpec]:
    return [
        e16._fleet_spec(arm, "pack", "bursty", scale, **_E16_TINY)
        for scale in (0.0, 1.0)
    ]


def _e17_specs(arm: str) -> list[FleetSpec]:
    return [e17._fleet_spec(arm, 5_000.0, scale, **_E17_TINY) for scale in (0.0, 1.0)]


@pytest.mark.parametrize(
    "specs",
    [
        pytest.param(_e16_specs("conventional"), id="E16-conventional"),
        pytest.param(_e16_specs("zns"), id="E16-zns"),
        pytest.param(_e17_specs("zns-naive"), id="E17-zns-naive"),
        pytest.param(_e17_specs("zns-managed"), id="E17-zns-managed"),
    ],
)
def test_one_shared_warm_up_gives_the_per_arm_frames(specs, monkeypatch):
    per_arm = [simulate_shard([spec])[0].to_dict() for spec in specs]
    builds = []
    real_build = rack.build_stack

    def counted_build(*args, **kwargs):
        builds.append(args[0])
        return real_build(*args, **kwargs)

    monkeypatch.setattr(rack, "build_stack", counted_build)
    shared = [frame.to_dict() for frame in simulate_shard(specs)]
    # Counters, maxima and every latency sample, in order.
    assert shared == per_arm
    assert per_arm[0] != per_arm[1]  # the arms really differ
    assert len(builds) == specs[0].num_devices  # one warm-up per device


def test_specs_may_differ_only_in_fault_plans():
    clean = _e16_specs("zns")[0]
    other_load = e16._fleet_spec("zns", "pack", "steady", 1.0, **_E16_TINY)
    with pytest.raises(ValueError, match="fault plans"):
        simulate_shard([clean, other_load])
    with pytest.raises(ValueError, match="at least one"):
        simulate_shard([])
    with pytest.raises(TypeError, match="sequence"):
        simulate_shard(clean)
