"""Tests for workload generators."""

import numpy as np
import pytest

from repro.flash.geometry import FlashGeometry
from repro.ftl.ftl import ConventionalFTL, FTLConfig
from repro.sim.rng import make_rng
from repro.workloads.lifetime import LifetimeClass, ObjectLifetimeWorkload
from repro.workloads.multitenant import BurstyTenant, demand_trace
from repro.workloads.synthetic import (
    fill_then_churn,
    hot_cold_array,
    hot_cold_stream,
    uniform_array,
    uniform_stream,
    zipfian_stream,
)
from tests.ftl.test_batch_parity import full_state


class TestSynthetic:
    def test_uniform_in_range_and_deterministic(self):
        a = list(uniform_stream(100, 50, seed=1))
        b = list(uniform_stream(100, 50, seed=1))
        assert a == b
        assert all(0 <= x < 100 for x in a)

    def test_zipfian_skew(self):
        samples = list(zipfian_stream(1000, 20_000, theta=0.99, seed=2))
        assert all(0 <= x < 1000 for x in samples)
        # Strong skew: the hottest 10% of pages draw well over half the traffic.
        hot_hits = sum(1 for x in samples if x < 100)
        assert hot_hits / len(samples) > 0.5

    def test_zipfian_large_space_approximation(self):
        samples = list(zipfian_stream(1 << 20, 5000, theta=0.9, seed=2))
        assert all(0 <= x < (1 << 20) for x in samples)
        hot_hits = sum(1 for x in samples if x < (1 << 20) // 10)
        assert hot_hits / len(samples) > 0.5

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            list(uniform_stream(0, 1))
        with pytest.raises(ValueError):
            list(zipfian_stream(10, 1, theta=1.5))
        with pytest.raises(ValueError):
            list(hot_cold_stream(10, 1, hot_fraction=0.0))


def _scalar_zipfian(num_pages, count, theta, rng):
    """``zipfian_stream`` as it drew before chunking: one ``rng.random()`` per step."""
    if num_pages <= 1 << 16:
        cdf = np.cumsum(np.arange(1, num_pages + 1, dtype=np.float64) ** (-theta))
        cdf /= cdf[-1]
        return [int(np.searchsorted(cdf, rng.random())) for _ in range(count)]
    exponent = 1.0 / (1.0 - theta)
    return [
        min(int(num_pages * (rng.random() ** exponent)), num_pages - 1) for _ in range(count)
    ]


class TestArrayAndChunkedDrawsAreTheScalarStreams:
    """The batched consumers (every ageing loop, E13's address stream)
    rest on numpy drawing the same sequence in bulk as one at a time."""

    # Below, at and just past the 4096-draw chunk, and several chunks.
    @pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097, 10_000])
    @pytest.mark.parametrize("num_pages", [7656, (1 << 16) + 1], ids=["cdf", "power-law"])
    def test_zipfian_chunks_equal_scalar_draws(self, num_pages, count):
        chunked, scalar = make_rng(11), make_rng(11)
        samples = list(zipfian_stream(num_pages, count, theta=0.9, seed=chunked))
        assert samples == _scalar_zipfian(num_pages, count, 0.9, scalar)
        assert all(type(x) is int for x in samples)
        # Exactly ``count`` draws consumed: the next one agrees.
        assert chunked.random() == scalar.random()

    @pytest.mark.parametrize("num_pages, count", [(1, 5), (100, 0), (7656, 3828), (7656, 20_000)])
    def test_uniform_array_equals_uniform_stream(self, num_pages, count):
        array = uniform_array(num_pages, count, seed=5)
        assert array.dtype == np.int64
        assert array.tolist() == list(uniform_stream(num_pages, count, seed=5))

    def test_uniform_array_shares_a_generator_like_the_stream(self):
        bulk, scalar = make_rng(7), make_rng(7)
        first = uniform_array(500, 300, seed=bulk).tolist()
        second = uniform_array(90, 1000, seed=bulk).tolist()
        assert first == list(uniform_stream(500, 300, seed=scalar))
        assert second == list(uniform_stream(90, 1000, seed=scalar))
        assert bulk.random() == scalar.random()

    def test_hot_cold_array_is_the_stream(self):
        bulk, scalar = make_rng(3), make_rng(3)
        array = hot_cold_array(1000, 5000, 0.1, 0.9, seed=bulk)
        assert array.dtype == np.int64
        assert array.tolist() == [page for page, _ in hot_cold_stream(1000, 5000, seed=scalar)]
        assert bulk.random() == scalar.random()

    def test_a_hot_cold_stream_closed_early_leaves_the_scalar_generator(self):
        shared, scalar = make_rng(4), make_rng(4)
        stream = hot_cold_stream(1000, 5000, 0.1, 0.9, seed=shared)
        taken = [next(stream) for _ in range(1234)]
        stream.close()
        for page, hot in taken:
            assert (scalar.random() < 0.9) is hot
            assert page == int(scalar.integers(0, 100) if hot else scalar.integers(100, 1000))
        assert shared.bit_generator.state == scalar.bit_generator.state


def test_fill_then_churn_leaves_the_scalar_loops_state():
    def make():
        return ConventionalFTL(FlashGeometry.small(), FTLConfig(op_ratio=0.07, gc_streams=4))

    batched, scalar = make(), make()
    n = scalar.logical_pages
    fill_then_churn(batched, uniform_array(n, n // 2, seed=5))
    for lpn in range(n):
        scalar.write(lpn)
    for lpn in uniform_stream(n, n // 2, seed=5):
        scalar.write(lpn)
    assert scalar.stats.gc_runs > 0
    assert full_state(batched) == full_state(scalar)

    untouched = make()
    fill_then_churn(untouched)
    assert untouched.nand.counters.count("program", "host") == n
    assert untouched.stats.gc_runs == 0


class TestHotCold:
    def test_traffic_split(self):
        events = list(hot_cold_stream(1000, 20_000, 0.1, 0.9, seed=3))
        hot = sum(1 for _, is_hot in events if is_hot)
        assert 0.85 < hot / len(events) < 0.95
        for page, is_hot in events:
            if is_hot:
                assert page < 100
            else:
                assert page >= 100


class TestLifetimeWorkload:
    def test_every_create_gets_a_delete(self):
        wl = ObjectLifetimeWorkload(num_objects=500, seed=6)
        creates, deletes = set(), set()
        for event in wl.events():
            if event.kind == "create":
                creates.add(event.obj_id)
            else:
                assert event.obj_id in creates, "delete before create"
                deletes.add(event.obj_id)
        assert creates == deletes
        assert len(creates) == 500

    def test_deterministic(self):
        a = [(e.kind, e.obj_id) for e in ObjectLifetimeWorkload(200, seed=7).events()]
        b = [(e.kind, e.obj_id) for e in ObjectLifetimeWorkload(200, seed=7).events()]
        assert a == b

    def test_owner_correlates_with_lifetime_class(self):
        wl = ObjectLifetimeWorkload(num_objects=3000, owners=3, seed=8)
        by_owner = {}
        for event in wl.events():
            if event.kind == "create":
                by_owner.setdefault(event.owner % 3, []).append(event.lifetime_class)
        # Owner archetype 0 is churny: mostly SHORT.
        short = sum(1 for c in by_owner[0] if c is LifetimeClass.SHORT)
        assert short / len(by_owner[0]) > 0.7
        # Owner archetype 2 is archival: mostly LONG.
        long = sum(1 for c in by_owner[2] if c is LifetimeClass.LONG)
        assert long / len(by_owner[2]) > 0.6

    def test_lifetime_scale_shortens_lives(self):
        def mean_life(scale):
            wl = ObjectLifetimeWorkload(num_objects=1000, lifetime_scale=scale, seed=9)
            created, lifetimes = {}, []
            for event in wl.events():
                if event.kind == "create":
                    created[event.obj_id] = event.time
                else:
                    lifetimes.append(event.time - created[event.obj_id])
            return np.mean(lifetimes)

        assert mean_life(0.1) < mean_life(1.0)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ObjectLifetimeWorkload(num_objects=0)
        with pytest.raises(ValueError):
            ObjectLifetimeWorkload(num_objects=1, lifetime_scale=0)


class TestMultitenant:
    def test_demand_alternates(self):
        tenants = [BurstyTenant(tenant_id=0, idle_zones=1, burst_zones=8)]
        events = list(demand_trace(tenants, 5000, seed=10))
        levels = {e.zones_wanted for e in events}
        assert levels == {1, 8}

    def test_mean_demand_formula(self):
        t = BurstyTenant(0, idle_zones=1, burst_zones=9, burst_start_prob=0.1, burst_end_prob=0.1)
        assert t.mean_demand == pytest.approx(5.0)

    def test_invalid_tenant(self):
        with pytest.raises(ValueError):
            BurstyTenant(0, idle_zones=5, burst_zones=2)
        with pytest.raises(ValueError):
            BurstyTenant(0, burst_start_prob=0.0)

    def test_a_trace_takes_one_scalar_random_per_tenant_and_step(self):
        tenants = [BurstyTenant(tenant_id=i) for i in range(3)]
        shared, scalar = make_rng(12), make_rng(12)
        list(demand_trace(tenants, 500, seed=shared))
        scalar.random(499 * 3)
        assert shared.bit_generator.state == scalar.bit_generator.state

    def test_initial_event_per_tenant(self):
        tenants = [BurstyTenant(tenant_id=i) for i in range(3)]
        events = list(demand_trace(tenants, 10, seed=11))
        initial = [e for e in events if e.time == 0]
        assert len(initial) == 3

