"""``LSMStore.put_many`` is the ``put`` loop, state for state and call for call.

Two stores of one shape take the same (key, value) stream: one a ``put``
at a time, the other through ``put_many`` in drawn chunk sizes, with
crashes at chunk edges on both. The config is tiny (four entries per WAL
page, eight per flush, compactions every few flushes, devices of a few
hundred pages), so WAL syncs, flushes and compactions land on run and
chunk edges. The backends' calls must come in the same order, and the
memtable (in insertion order), the WAL columns and watermark, ``LSMStats``
with its I/O plan, every level's columns, the allocator or zone log and
the device's op counts must match.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.lsm import BlockFileBackend, LSMStore, ZoneFileBackend
from repro.apps.lsm.memtable import TOMBSTONE
from repro.block.ramdisk import RamDisk
from tests.apps.test_lsm import TINY_CFG, tiny_zns
from tests.apps.test_lsm_driver import _backend_state

SHAPES = ("block-trim", "block-aged", "zoned")


def build(shape: str, wal: bool):
    """A store of ``shape`` and the op counter under it."""
    cfg = dataclasses.replace(TINY_CFG, wal_enabled=wal)
    if shape == "zoned":
        device = tiny_zns()
        return LSMStore(ZoneFileBackend(device), cfg), device.nand.counters
    disk = RamDisk(120)
    if shape == "block-trim":
        backend = BlockFileBackend(disk, trim_on_delete=True)
    else:
        backend = BlockFileBackend(disk, trim_on_delete=False, allocation_strategy="aged")
    return LSMStore(backend, cfg), disk.counters


def record_calls(store: LSMStore) -> list:
    """Log every backend call the store makes, tables named by content."""
    calls = []
    backend = store.backend
    for name in ("write_table", "delete_table", "append_wal_page", "reset_wal"):

        def logged(*tables, _name=name, _method=getattr(backend, name)):
            calls.append((_name, *((t.level, t.keys[0], t.size_pages) for t in tables)))
            return _method(*tables)

        setattr(backend, name, logged)
    return calls


def state(store: LSMStore, counters) -> dict:
    return {
        "memtable": list(store.memtable.data.items()),
        "wal": (store._wal_keys, store._wal_values, store._wal_next_sync),
        "stats": store.stats,
        # Table ids come from one process-wide counter, so compare by level.
        "levels": [
            [(t.keys, t.values, t.size_pages, t.handle) for t in level] for level in store.levels
        ],
        "backend_stats": store.backend.stats,
        "backend": _backend_state(store),
        "counters": counters,
    }


values = st.one_of(st.just(TOMBSTONE), st.integers(0, 3))


@settings(max_examples=120, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    wal=st.booleans(),
    key_space=st.integers(1, 48),
    stream=st.lists(st.tuples(st.integers(0, 47), values), max_size=300),
    chunks=st.lists(st.tuples(st.integers(0, 40), st.booleans()), max_size=30),
)
def test_put_many_is_the_put_loop(shape, wal, key_space, stream, chunks):
    looped, looped_counters = build(shape, wal)
    batched, batched_counters = build(shape, wal)
    looped_calls, batched_calls = record_calls(looped), record_calls(batched)
    keys = [key % key_space for key, _ in stream]
    vals = [value for _, value in stream]
    start = 0
    for size, crash in [*chunks, (len(keys), False)]:
        end = min(start + size, len(keys))
        for key, value in zip(keys[start:end], vals[start:end]):
            looped.put(key, value)
        batched.put_many(keys[start:end], vals[start:end])
        if crash:
            assert looped.crash_and_recover() == batched.crash_and_recover()
        assert batched_calls == looped_calls
        start = end
    assert state(batched, batched_counters) == state(looped, looped_counters)
    batched.check_invariants()
    assert looped.crash_and_recover() == batched.crash_and_recover()
    assert list(batched.memtable.data.items()) == list(looped.memtable.data.items())
    assert state(batched, batched_counters) == state(looped, looped_counters)


def test_the_tiny_config_puts_every_boundary_inside_a_run():
    """One 300-key ``put_many`` over 40 keys syncs, flushes and compacts
    many times within a single call."""
    store, _ = build("zoned", wal=True)
    keys = [i * 7 % 40 for i in range(300)]
    store.put_many(keys, keys)
    stats = store.stats
    assert stats.wal_pages > 50 and stats.flushes > 20 and stats.compactions > 5
    store.check_invariants()


@pytest.mark.parametrize("wal", [True, False])
def test_unequal_lengths_raise_before_any_change(wal):
    store, counters = build("block-trim", wal)
    twin, twin_counters = build("block-trim", wal)
    for target in (store, twin):
        target.put_many([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
    for keys, vals in (([6, 7], [6]), ([6], [6, 7]), ([], [6])):
        with pytest.raises(ValueError, match="keys but"):
            store.put_many(keys, vals)
    assert state(store, counters) == state(twin, twin_counters)
