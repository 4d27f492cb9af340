"""Property-based tests for the cache designs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.cache import SetAssociativeCache, ZoneLogCache
from repro.block.factory import DeviceSpec, build_stack
from repro.flash.geometry import ZonedGeometry
from repro.zns.device import ZNSDevice


@settings(max_examples=20, deadline=None)
@given(requests=st.lists(st.integers(0, 500), max_size=400))
def test_zone_log_cache_location_consistency(requests):
    """Every object the cache claims to hold is readable at its recorded
    location, and the device's zone state agrees."""
    cache = ZoneLogCache(ZNSDevice(ZonedGeometry.small()), readmit_hot=True)
    for obj in requests:
        if not cache.get(obj):
            cache.admit(obj)
    for obj, (zone, offset) in cache._location.items():
        assert offset < cache.device.zone(zone).wp, (
            f"object {obj} recorded beyond the write pointer"
        )
    # No zone sits twice in the ring, and each object in exactly one zone.
    cache.check_invariants()


@settings(max_examples=20, deadline=None)
@given(requests=st.lists(st.integers(0, 100), max_size=300))
def test_set_associative_capacity_respected(requests):
    ftl = build_stack(DeviceSpec(kind="conventional-ftl", geometry="small"))
    cache = SetAssociativeCache(ftl, ways=2, num_sets=16)
    for obj in requests:
        if not cache.get(obj):
            cache.admit(obj)
    for bucket in cache._sets:
        assert len(bucket) <= cache.ways
        assert len(set(bucket)) == len(bucket)  # no duplicates
    cache.check_invariants()


@settings(max_examples=10, deadline=None)
@given(requests=st.lists(st.integers(0, 60), min_size=50, max_size=300),
       seed=st.integers(0, 10))
def test_caches_agree_with_reference_on_hits(requests, seed):
    """A hit in either design must mean the object was admitted earlier
    and not (yet) evicted -- cross-checked against a simple shadow set."""
    cache = ZoneLogCache(ZNSDevice(ZonedGeometry.small()), readmit_hot=False)
    ever_admitted = set()
    for obj in requests:
        hit = cache.get(obj)
        if hit:
            assert obj in ever_admitted
        else:
            cache.admit(obj)
            ever_admitted.add(obj)
