"""The caches' ``check_invariants()``: it holds under churn and catches each break.

Both caches serve E13 and every fleet tenant, so the churn below drives
them with the fleet's constructor values too: deletes, a one-way
Fibonacci-hashed slice of a shared FTL, and a zone ring reset on
arrival. Each corruption breaks exactly one rule, and the check must
name it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.cache import FIBONACCI, SetAssociativeCache, ZoneLogCache
from repro.block.factory import DeviceSpec, build_stack

_ops = st.lists(st.tuples(st.sampled_from(["admit", "get", "delete"]), st.integers(0, 400)),
                max_size=600)  # fmt: skip


def _ftl():
    return build_stack(DeviceSpec(kind="conventional-ftl", geometry="small"))


def _zns():
    flash = (("pages_per_block", 4),)  # 8-page zones: a few dozen admits wrap a ring
    return build_stack(DeviceSpec(kind="zns", geometry="small", flash=flash, blocks_per_zone=2))


def _drive(cache, ops) -> None:
    for op, key in ops:
        if op == "admit":
            cache.admit(key, build_ops=True)
        elif op == "get":
            cache.get(key)
        else:
            cache.delete(key)


@settings(max_examples=15, deadline=None)
@given(ops=_ops, ways=st.integers(1, 3))
def test_set_caches_on_one_device_keep_their_invariants(ops, ways):
    ftl = _ftl()
    slices = [
        SetAssociativeCache(ftl, ways=ways, num_sets=24, base=24 * i, multiplier=FIBONACCI)
        for i in range(2)
    ]
    for i, cache in enumerate(slices):
        _drive(cache, ops[i::2])
        cache.check_invariants()
        assert len(cache._keys) == sum(map(len, cache._sets))


@settings(max_examples=15, deadline=None)
@given(ops=_ops, readmit=st.booleans())
def test_zone_rings_keep_their_invariants(ops, readmit):
    device = _zns()
    # Two rings of four zones share the device.
    rings = [ZoneLogCache(device, readmit_hot=readmit, zones=[4 * i + z for z in range(4)])
             for i in range(2)]  # fmt: skip
    for i, cache in enumerate(rings):
        _drive(cache, ops[i::2])
        cache.check_invariants()


def _zone_log() -> ZoneLogCache:
    cache = ZoneLogCache(_zns(), readmit_hot=False, zones=[0, 1, 2])
    for key in range(40):
        cache.admit(key)
    cache.check_invariants()
    return cache


def _set_cache() -> SetAssociativeCache:
    cache = SetAssociativeCache(_ftl(), ways=2, num_sets=8)
    for key in range(12):
        cache.admit(key)
    cache.check_invariants()
    return cache


def _other_zone(cache: ZoneLogCache, key: int) -> int:
    zone = cache._location[key][0]
    return next(z for z in cache.zones if z != zone)


def _listed_elsewhere(cache: ZoneLogCache) -> None:
    key = next(iter(cache._location))
    cache._zone_keys[_other_zone(cache, key)][key] = None


def _moved_out_of_ring(cache: ZoneLogCache) -> None:
    key = next(iter(cache._location))
    zone, offset = cache._location[key]
    del cache._zone_keys[zone][key]
    cache._location[key] = (9, offset)
    cache._zone_keys[9] = {key: None}


def _unlisted(cache: ZoneLogCache) -> None:
    key = next(iter(cache._location))
    del cache._zone_keys[cache._location[key][0]][key]


def _above_pointer(cache: ZoneLogCache) -> None:
    key = next(iter(cache._location))
    zone, _ = cache._location[key]
    cache._location[key] = (zone, cache.device.zone(zone).wp)


def _unindexed(cache) -> None:
    cache._unindex(cache._keys[0])


def _zone_twice(cache: ZoneLogCache) -> None:
    cache.zones.append(cache.zones[0])


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_unindexed, "key index"),
        (_above_pointer, "above the pointer"),
        (_moved_out_of_ring, "outside the ring"),
        (_unlisted, "does not list"),
        (_listed_elsewhere, "lists key"),
        (_zone_twice, "twice in the ring"),
    ],
)
def test_zone_log_check_catches(corrupt, message):
    cache = _zone_log()
    corrupt(cache)
    with pytest.raises(AssertionError, match=message):
        cache.check_invariants()


def _wrong_set(cache: SetAssociativeCache) -> None:
    key = cache._sets[0].pop()
    roomy = next(b for i, b in enumerate(cache._sets) if len(b) < cache.ways and i != 0)
    roomy.insert(0, key)


def _over_full(cache: SetAssociativeCache) -> None:
    bucket = next(b for b in cache._sets if b)
    bucket.extend(range(100, 100 + cache.ways))


def _never_written(cache: SetAssociativeCache) -> None:
    cache.device.trim(cache.base)  # set 0, which holds key 0


def _twice(cache: SetAssociativeCache) -> None:
    bucket = next(b for b in cache._sets if len(b) == 1)
    bucket.append(bucket[0])


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_unindexed, "not indexed"),
        (_wrong_set, "hashes elsewhere"),
        (_over_full, "holds"),
        (_never_written, "unwritten"),
        (_twice, "key index disagree"),
    ],
)
def test_set_cache_check_catches(corrupt, message):
    cache = _set_cache()
    corrupt(cache)
    with pytest.raises(AssertionError, match=message):
        cache.check_invariants()
