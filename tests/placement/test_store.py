"""Tests for hint policies and the zoned object store."""

import pytest

from repro.flash.geometry import ZonedGeometry
from repro.placement import HINT_POLICIES, StoreFullError, ZonedObjectStore
from repro.placement.hints import by_batch, by_lifetime_oracle, by_owner, no_hint
from repro.workloads.lifetime import LifetimeClass, ObjectEvent, ObjectLifetimeWorkload
from repro.zns.device import ZNSDevice


def event(obj_id=0, size=1, owner=0, batch=0, cls=LifetimeClass.MEDIUM):
    return ObjectEvent(
        time=0, kind="create", obj_id=obj_id, size_pages=size,
        owner=owner, batch=batch, lifetime_class=cls,
    )


def make_store(policy=no_hint, **kwargs):
    zoned = ZonedGeometry.small()
    return ZonedObjectStore(ZNSDevice(zoned), hint_policy=policy, **kwargs)


class TestHintPolicies:
    def test_no_hint_single_label(self):
        assert no_hint(event(owner=1)) == no_hint(event(owner=2))

    def test_owner_separates(self):
        assert by_owner(event(owner=1)) != by_owner(event(owner=2))

    def test_batch_bounded_labels(self):
        labels = {by_batch(event(batch=b)) for b in range(100)}
        assert len(labels) == 4

    def test_oracle_uses_lifetime_class(self):
        a = by_lifetime_oracle(event(cls=LifetimeClass.SHORT))
        b = by_lifetime_oracle(event(cls=LifetimeClass.LONG))
        assert a != b

    def test_registry_complete(self):
        assert set(HINT_POLICIES) == {"none", "owner", "batch", "oracle"}


class TestPutDelete:
    def test_put_and_contains(self):
        store = make_store()
        store.put(event(obj_id=1, size=3))
        assert store.contains(1)
        assert store.log.live_v[store.objects[1].zone] == 3

    def test_duplicate_put_rejected(self):
        store = make_store()
        store.put(event(obj_id=1))
        with pytest.raises(ValueError):
            store.put(event(obj_id=1))

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            make_store().put(event(size=0))

    def test_object_larger_than_a_zone_rejected_up_front(self):
        store = make_store(policy=by_owner)
        store.put(event(obj_id=1, owner=0))
        free, frontiers = list(store.log.free), dict(store.log.frontiers)
        too_big = store.device.geometry.pages_per_zone + 1
        with pytest.raises(ValueError, match="fit in one zone"):
            store.put(event(obj_id=2, owner=1, size=too_big))
        assert store.log.free == free and store.log.frontiers == frontiers
        assert not store.contains(2)
        store.check_invariants()

    def test_delete_marks_dead(self):
        store = make_store()
        store.put(event(obj_id=1, size=2))
        zone = store.objects[1].zone
        store.delete(1)
        assert not store.contains(1)
        assert store.log.live_v[zone] == 0

    def test_delete_unknown_is_noop(self):
        make_store().delete(999)

    def test_different_labels_use_different_zones(self):
        store = make_store(policy=by_owner)
        store.put(event(obj_id=1, owner=0))
        store.put(event(obj_id=2, owner=1))
        assert store.objects[1].zone != store.objects[2].zone


class TestReclaim:
    def test_dead_zones_reset_for_free(self):
        store = make_store()
        pages_per_zone = store.device.geometry.pages_per_zone
        # Fill a few zones then kill everything.
        count = 3 * pages_per_zone
        for i in range(count):
            store.put(event(obj_id=i))
        for i in range(count):
            store.delete(i)
        assert store.log.reclaim(len(store.log.free) + 2, store._evacuate) is None
        assert store.log.free_resets == store.log.resets >= 2
        assert store.device.nand.counters.count("program", "reclaim") == 0

    def test_survivors_relocated(self):
        store = make_store()
        pages_per_zone = store.device.geometry.pages_per_zone
        for i in range(2 * pages_per_zone):
            store.put(event(obj_id=i))
        # Kill all but one object in the first zone.
        first_zone = store.objects[0].zone
        survivors = [i for i in range(2 * pages_per_zone)
                     if store.objects[i].zone == first_zone][:1]
        for i in range(2 * pages_per_zone):
            if i not in survivors and store.objects[i].zone == first_zone:
                store.delete(i)
        before = len(store.log.free)
        store.log.reclaim(before + 1, store._evacuate)
        assert store.contains(survivors[0])
        assert store.device.nand.counters.count("program", "reclaim") >= 1
        store.check_invariants()

    def test_full_workload_preserves_live_objects(self):
        zoned = ZonedGeometry.small()
        store = ZonedObjectStore(ZNSDevice(zoned), hint_policy=by_owner)
        capacity = zoned.zone_count * zoned.pages_per_zone
        wl = ObjectLifetimeWorkload(
            num_objects=capacity, owners=4, size_pages=2,
            lifetime_scale=0.85 * capacity / (8 * 2) / 7600.0, seed=12,
        )
        live = set()
        for e in wl.events():
            if e.kind == "create":
                store.put(e)
                live.add(e.obj_id)
            else:
                store.delete(e.obj_id)
                live.discard(e.obj_id)
        assert {o for o in live if store.contains(o)} == live
        store.check_invariants()

    def test_store_full_raises(self):
        store = make_store(reserve_zones=1)
        capacity = store.device.zone_count * store.device.geometry.pages_per_zone
        with pytest.raises(StoreFullError):
            for i in range(capacity + 1):
                store.put(event(obj_id=i))  # nothing ever dies


class TestWaAccounting:
    def test_wa_one_without_relocation(self):
        store = make_store()
        for i in range(10):
            store.put(event(obj_id=i))
        assert store.device.nand.counters.write_amplification() == pytest.approx(1.0)

    def test_oracle_beats_blind_on_lifetime_workload(self):
        def run(policy_name):
            zoned = ZonedGeometry.small()
            store = ZonedObjectStore(
                ZNSDevice(zoned), hint_policy=HINT_POLICIES[policy_name]
            )
            capacity = zoned.zone_count * zoned.pages_per_zone
            wl = ObjectLifetimeWorkload(
                num_objects=int(2.5 * capacity // 2), owners=6, size_pages=2,
                lifetime_scale=0.85 * capacity / (8 * 2) / 7600.0, seed=13,
            )
            for e in wl.events():
                if e.kind == "create":
                    store.put(e)
                else:
                    store.delete(e.obj_id)
            return store.device.nand.counters.write_amplification()

        assert run("oracle") <= run("none")
