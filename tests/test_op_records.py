"""Op records are built on request, and asking for none changes nothing else.

A device command builds :class:`~repro.flash.ops.FlashOp` records only
when its caller passes ``build_ops=True`` (the default), because only
timed replays and the fleet's pricing read them. Two properties make that
safe, and this module holds both:

- *Parity.* Two ``replay_copy`` twins of one warmed device run the same
  seeded command sequence, one asking for records and one not. They end
  in the same state: NAND op counts, mapping and OOB arrays, free and
  sealed pools, and every event a sink saw.
- *Untimed runs build none.* The counting experiments (a shrunken E13, A4
  and E14) and the block facade's reads and writes on a collecting drive
  construct no record at all, zone-reset erases aside.
"""

from __future__ import annotations

import copy
import sys

import numpy as np
import pytest

from repro.apps.cache import ZoneLogCache
from repro.block.factory import DeviceSpec, build_stack
from repro.experiments import ExperimentConfig, a4_dramless, e13_cache, e14_endurance
from repro.flash.ops import FlashOp, OpKind
from repro.flash.state import replay_copy
from repro.obs.events import event_to_dict
from repro.obs.tracer import Tracer
from repro.placement import HINT_POLICIES, ZonedObjectStore
from repro.sim.rng import make_rng
from repro.workloads.lifetime import ObjectLifetimeWorkload
from repro.workloads.synthetic import fill_then_churn, hot_cold_array, zipfian_stream


class _Events:
    """Sink: every event as its trace line's dict."""

    def __init__(self):
        self.lines = []

    def on_event(self, event) -> None:
        self.lines.append(event_to_dict(event))


def _arrays(**arrays) -> dict:
    return {name: np.asarray(a).tobytes() for name, a in arrays.items()}


# -- Rigs: a warmed device, a seeded command sequence, and the state to compare --


def _ftl_state(ftl) -> dict:
    nand = ftl.nand
    state = _arrays(
        write_offsets=nand.write_offsets,
        erase_counts=nand.wear.erase_counts,
        l2p=ftl.map.l2p,
        p2l=ftl.map.p2l,
        valid_counts=ftl.map.valid_counts,
        oob_lpn=ftl._oob_lpn,
        oob_serial=ftl._oob_serial,
        seal_times=ftl._seal_time_arr,
    )
    state.update(
        counters=nand.counters,
        free=list(ftl._free),
        sealed=sorted(ftl.sealed_blocks),
        active=(dict(ftl._active), dict(ftl._gc_active)),
        stats=ftl.stats,
    )
    if hasattr(ftl, "store"):
        state.update(_arrays(gtd=ftl.store.gtd, trans_valid=ftl._trans_valid))
        state.update(
            trans_sealed=sorted(ftl._trans_sealed),
            trans_active=ftl._trans_active,
            cmt=ftl.store.stats,
        )
    return state


def _ftl_commands(ftl, build_ops: bool) -> int:
    """Hot/cold writes and reads, one wear-level pass; returns records built."""
    n = ftl.logical_pages
    rng = make_rng(7)
    hot = hot_cold_array(n, 3_000, seed=7)
    records = 0
    for i, lpn in enumerate(hot.tolist()):
        if rng.random() < 0.3:
            op = ftl.read(int(rng.integers(0, n)), build_ops=build_ops)
            records += op is not None
        else:
            ops = ftl.write(lpn, build_ops=build_ops)
            records += len(ops)
        if i == 1_500:
            records += len(ftl.wear_level_once(build_ops))
    return records


def _conventional_static_wl():
    ftl = build_stack(
        DeviceSpec(
            kind="conventional-ftl", geometry="small", ftl={"op_ratio": 0.07},
            wl_policy="static",
        ),
        tracer=Tracer(),
    )
    n = ftl.logical_pages
    fill_then_churn(ftl, hot_cold_array(n, 4 * n, seed=3))
    return ftl, ftl.tracer, _ftl_commands, _ftl_state


def _dftl_tiny_cmt():
    ftl = build_stack(
        DeviceSpec(kind="dftl", geometry="small", ftl={"op_ratio": 0.11}, cmt_bytes=4096),
        tracer=Tracer(),
    )
    ftl.write_pages(np.arange(ftl.logical_pages))
    return ftl, ftl.tracer, _ftl_commands, _ftl_state


class _Asking:
    """A ZNS device whose data commands all get the given ``build_ops``.

    The placement store asks for no records; this lets one twin's store
    ask for them, so both twins run the store's own command sequence.
    """

    def __init__(self, device, build_ops: bool):
        self._device = device
        self._build_ops = build_ops
        self.records = 0

    def __getattr__(self, name):
        return getattr(self._device, name)

    def write(self, *args, **kwargs):
        ops = self._device.write(*args, **{**kwargs, "build_ops": self._build_ops})
        self.records += len(ops)
        return ops

    def read(self, *args, **kwargs):
        payload, op = self._device.read(*args, **{**kwargs, "build_ops": self._build_ops})
        self.records += op is not None
        return payload, op

    def simple_copy(self, *args, **kwargs):
        start, ops = self._device.simple_copy(
            *args, **{**kwargs, "build_ops": self._build_ops}
        )
        self.records += len(ops)
        return start, ops


def _store_state(store) -> dict:
    device = store.device
    return {
        **_arrays(
            write_offsets=device.nand.write_offsets,
            erase_counts=device.nand.wear.erase_counts,
            live=store.log.live,
            sealed=store.log.sealed,
        ),
        "counters": device.nand.counters,
        "zones": [(z.state, z.wp, z.capacity_pages) for z in device.zones],
        "blocks": [device.ftl.blocks_of_zone(z) for z in range(device.zone_count)],
        "free": list(store.log.free),
        "frontiers": dict(store.log.frontiers),
        "objects": dict(store.objects),
    }


def _placement_store():
    spec = DeviceSpec(kind="zns", geometry="small", blocks_per_zone=2, max_active_zones=14)
    device = build_stack(spec, tracer=Tracer())
    store = ZonedObjectStore(device, hint_policy=HINT_POLICIES["none"], reserve_zones=2)
    capacity = device.zone_count * device.geometry.pages_per_zone
    events = list(
        ObjectLifetimeWorkload(
            num_objects=capacity, owners=6, batch_size=8, size_pages=2,
            lifetime_scale=(0.85 * capacity) / 16 / 7600.0, seed=5,
        ).events()
    )
    warm, rest = events[: len(events) // 2], events[len(events) // 2 :]

    def play(store, batch):
        for event in batch:
            if event.kind == "create":
                store.put(event)
            else:
                store.delete(event.obj_id)

    play(store, warm)

    def commands(store, build_ops: bool) -> int:
        store.device = _Asking(store.device, build_ops)
        rng = make_rng(11)
        for i in range(0, len(rest), 64):
            play(store, rest[i : i + 64])
            for obj_id in sorted(store.objects)[:: max(len(store.objects) // 8, 1)]:
                stored = store.objects[obj_id]
                store.device.read(stored.zone, stored.offset + int(rng.integers(0, 2)))
        asking, store.device = store.device, store.device._device
        return asking.records

    return store, device.tracer, commands, _store_state


def _dmzoned_state(layer) -> dict:
    device = layer.device
    return {
        **_arrays(
            write_offsets=device.nand.write_offsets,
            erase_counts=device.nand.wear.erase_counts,
            l2p=layer._l2p,
            p2l=layer._p2l,
            live=layer.log.live,
            sealed=layer.log.sealed,
        ),
        "counters": device.nand.counters,
        "zones": [(z.state, z.wp) for z in device.zones],
        "free": list(layer.log.free),
        "frontiers": dict(layer.log.frontiers),
        "stats": layer.stats,
    }


def _dmzoned_commands(layer, build_ops: bool) -> int:
    """Random writes and reads; returns the page records built (zone resets
    return their erases either way)."""
    n = layer.logical_pages
    rng = make_rng(13)
    records = 0
    for _ in range(3_000):
        lba = int(rng.integers(0, n))
        if rng.random() < 0.3:
            layer.read(lba)
        else:
            ops = layer.write(lba, build_ops=build_ops)
            records += sum(op.kind is not OpKind.ERASE for op in ops)
    return records


def _dmzoned(simple_copy: bool):
    def rig():
        layer = build_stack(
            DeviceSpec(
                kind="dmzoned", geometry="small", blocks_per_zone=2, max_active_zones=14,
                zoned_block={"op_ratio": 0.18, "use_simple_copy": simple_copy},
            ),
            tracer=Tracer(),
        )
        for lba in range(layer.logical_pages):
            layer.write(lba, build_ops=False)
        return layer, layer.tracer, _dmzoned_commands, _dmzoned_state

    return rig


RIGS = {
    "conventional-op7-static-wl": _conventional_static_wl,
    "dftl-tiny-cmt": _dftl_tiny_cmt,
    "zns-placement-store": _placement_store,
    "dmzoned-simple-copy": _dmzoned(True),
    "dmzoned-host-copy": _dmzoned(False),
}


def _twin(stack, tracer):
    """``replay_copy``, for a placement store too (it names no tracer of its own)."""
    if getattr(stack, "tracer", None) is tracer:
        return replay_copy(stack)
    return copy.deepcopy(stack, {id(tracer): tracer})


@pytest.mark.parametrize("name", list(RIGS))
def test_asking_for_no_records_changes_nothing_else(name):
    warmed, tracer, commands, state = RIGS[name]()
    before = state(warmed)["counters"]
    outcomes = []
    for build_ops in (True, False):
        twin = _twin(warmed, tracer)
        events = tracer.attach(_Events())
        records = commands(twin, build_ops)
        tracer.detach(events)
        twin.check_invariants()
        outcomes.append((records, state(twin), events.lines))
    (with_records, state_with, events_with), (without, state_without, events_without) = outcomes
    assert with_records > 0 and without == 0
    assert events_with and events_with == events_without
    assert state_with.keys() == state_without.keys()
    for key in state_with:
        assert state_with[key] == state_without[key], key
    # The sequence did the work it is meant to cover.
    after = state_with["counters"]
    assert after.count("erase") > before.count("erase")
    if name.startswith("conventional"):
        assert after.count("copy", "wear-level") > before.count("copy", "wear-level")
    if name.startswith("dftl"):
        assert after.count("program", "translation-writeback") > before.count(
            "program", "translation-writeback"
        )


# -- Untimed runs build no records ---------------------------------------------------


@pytest.fixture
def built(monkeypatch):
    """Every ``FlashOp`` constructed while the test runs, as (kind, builder):
    the qualified name of the code that built it, comprehensions included."""
    seen: list[tuple[OpKind, str]] = []
    new = FlashOp.__new__

    def counting(cls, kind, *args, **kwargs):
        builder = sys._getframe(1).f_code.co_qualname.removesuffix(".<locals>.<listcomp>")
        seen.append((kind, builder))
        return new(cls, kind, *args, **kwargs)

    monkeypatch.setattr(FlashOp, "__new__", staticmethod(counting))
    return seen


def test_the_counter_sees_records(built):
    ftl = build_stack(DeviceSpec(kind="conventional-ftl", geometry="small"))
    ftl.write(0)
    assert built == [(OpKind.PROGRAM, "ConventionalFTL.write")]


def test_shrunken_e13_builds_none(built, monkeypatch):
    monkeypatch.setattr(
        e13_cache, "zipfian_stream", lambda u, n, **kw: zipfian_stream(u, 30_000, **kw)
    )
    result = e13_cache.run(ExperimentConfig("E13"))
    conv, zns = result.rows
    assert conv["erases"] > 0 and zns["erases"] > 0
    assert set(built) == {(OpKind.ERASE, "ZNSDevice.reset_zone")}


def test_zone_log_cache_reads_build_none(built):
    device = build_stack(
        DeviceSpec(kind="zns", geometry="small", blocks_per_zone=2, max_active_zones=14)
    )
    cache = ZoneLogCache(device)
    for obj in range(200):
        cache.admit(obj)
    assert all(cache.get(obj) for obj in range(200))
    assert built == []


def test_a4_builds_none(built):
    row = a4_dramless.measure_cmt_budget.__wrapped__(4096, True, 0)
    assert row["wa_translation_pages"] > 0 and row["wa_data_gc_pages"] > 0
    assert built == []


def test_shrunken_e14_builds_none(built, monkeypatch):
    ftls = []

    def keep(spec):
        ftls.append(build_stack(spec))
        return ftls[-1]

    monkeypatch.setattr(e14_endurance, "build_stack", keep)
    monkeypatch.setattr(
        e14_endurance, "hot_cold_array", lambda n, count, seed: hot_cold_array(n, 2 * n, seed=seed)
    )
    e14_endurance.run(ExperimentConfig("E14"))
    assert any(ftl.nand.counters.count("copy", "wear-level") for ftl in ftls)
    assert built == []


def test_block_facade_builds_none_while_collecting(built):
    ssd = build_stack(DeviceSpec(kind="conventional-ssd", geometry="small"))
    n = ssd.num_blocks
    rng = make_rng(2)
    for lba in range(n):
        ssd.write_block(lba)
    for _ in range(2 * n):
        lba = int(rng.integers(0, n))
        ssd.write_block(lba)
        ssd.read_block(lba)
    assert ssd.ftl.stats.gc_runs > 0
    assert ssd.ftl.nand.counters.count("copy", "gc") > 0
    assert built == []
