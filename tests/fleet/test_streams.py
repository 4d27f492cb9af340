"""Tenant churn streams: replaying the shared buffer equals generating.

Every tenant of one ``(seed, tenant, lifetime_scale)`` reads, through its
own cursor (``_Tenant._next_event``), one lazily extended buffer of int
codes (``_stream_buffer``); a stream needs no cache behind it. The
reference is the chain of fresh ``ObjectLifetimeWorkload`` epochs it
replaced; sharing, interleaving, copying and cache eviction must be
invisible.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.block.factory import DeviceSpec
from repro.fleet import FleetSpec, derive_seed
from repro.fleet.rack import _stream_buffer, _Tenant
from repro.workloads.lifetime import ObjectLifetimeWorkload

# Crosses the 8,192-event boundary between workload epochs 0 and 1.
_EVENTS = 9_000

_seeds = st.integers(0, 2**32 - 1)
_tenants = st.integers(0, 63)
_scales = st.sampled_from([0.05, 0.5, 1.0, 3.0])


def _spec(seed: int, lifetime_scale: float) -> FleetSpec:
    device = DeviceSpec(kind="zns", geometry="small")
    return FleetSpec(mix=((device, 1),), seed=seed, lifetime_scale=lifetime_scale)


def _decoded(tenant: _Tenant, n: int) -> list[tuple[int, str, int]]:
    out = []
    for _ in range(n):
        epoch, code = tenant._next_event()
        out.append((epoch, "delete", ~code) if code < 0 else (epoch, "create", code))
    return out


def _generated(seed: int, tenant_id: int, lifetime_scale: float, n: int):
    """The first ``n`` events of the fresh-workload-per-epoch chain."""
    out: list[tuple[int, str, int]] = []
    epoch = 0
    while len(out) < n:
        workload = ObjectLifetimeWorkload(
            num_objects=4096,
            owners=3,
            batch_size=4,
            lifetime_scale=lifetime_scale,
            seed=derive_seed(seed, "objects", tenant_id, epoch),
        )
        out += [(epoch, event.kind, event.obj_id) for event in workload.events()]
        epoch += 1
    return out[:n]


@settings(max_examples=6, deadline=None)
@given(seed=_seeds, tenant_id=_tenants, lifetime_scale=_scales)
def test_replay_equals_generation(seed, tenant_id, lifetime_scale):
    stream = _Tenant(_spec(seed, lifetime_scale), tenant_id, cache=None)
    expected = _generated(seed, tenant_id, lifetime_scale, _EVENTS)
    assert {epoch for epoch, _, _ in expected} == {0, 1}
    assert _decoded(stream, _EVENTS) == expected
    # A second open replays what the first one generated.
    again = _Tenant(_spec(seed, lifetime_scale), tenant_id, cache=None)
    assert _decoded(again, _EVENTS) == expected


@settings(max_examples=10, deadline=None)
@given(
    seed=_seeds,
    tenant_id=_tenants,
    turns=st.lists(st.tuples(st.booleans(), st.integers(1, 400)), min_size=2, max_size=12),
)
def test_interleaved_consumers_each_see_the_whole_sequence(seed, tenant_id, turns):
    spec = _spec(seed, 0.05)
    first = _Tenant(spec, tenant_id, cache=None)
    # The second consumer is a copy taken mid-stream: it resumes at the
    # original's cursor, and from then on the two cursors are independent.
    skipped = _decoded(first, turns[0][1])
    consumers = (first, copy.deepcopy(first))
    seen: tuple[list, list] = (skipped, list(skipped))
    for second, count in turns:
        seen[second].extend(_decoded(consumers[second], count))
    expected = _generated(seed, tenant_id, 0.05, max(map(len, seen)))
    for events in seen:
        assert events == expected[: len(events)]


@settings(max_examples=6, deadline=None)
@given(seed=_seeds, tenant_id=_tenants, before=st.integers(0, 600))
def test_a_consumer_outlives_its_cache_entry(seed, tenant_id, before):
    spec = _spec(seed, 0.05)
    survivor = _Tenant(spec, tenant_id, cache=None)
    events = _decoded(survivor, before)
    _stream_buffer.cache_clear()
    newcomer = _Tenant(spec, tenant_id, cache=None)
    late = _decoded(newcomer, 300)
    events += _decoded(survivor, 900)
    expected = _generated(seed, tenant_id, 0.05, before + 900)
    assert events == expected
    assert late == expected[:300]
