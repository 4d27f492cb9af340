"""Tests for FleetSpec: validation, derived views, hashing."""

import pytest

from repro.block.factory import DeviceSpec
from repro.fleet import FleetSpec

_CONV = DeviceSpec(kind="conventional-ftl", geometry="small", ftl={"op_ratio": 0.18})
_ZNS = DeviceSpec(
    kind="zns", geometry="small", blocks_per_zone=2, max_active_zones=14
)


def _spec(**overrides) -> FleetSpec:
    fields = {"mix": ((_CONV, 2), (_ZNS, 2)), "tenants": 4, "ticks": 10}
    fields.update(overrides)
    return FleetSpec(**fields)


class TestValidation:
    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError, match="mix"):
            FleetSpec(mix=())
        with pytest.raises(ValueError, match="mix"):
            FleetSpec(mix=((_CONV, 0),))

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("tenants", 0),
            ("placement", "random"),
            ("ticks", 0),
            ("warmup_ticks", -1),
            ("tick_us", 0.0),
            ("reads_per_tick", -1),
            ("utilization", 1.0),
            ("utilization", 0.0),
            ("lifetime_scale", 0.0),
            ("heavy_factor", 0),
        ],
    )
    def test_bad_field_values_rejected(self, field, bad):
        with pytest.raises(ValueError):
            _spec(**{field: bad})

    def test_burst_must_cover_idle(self):
        with pytest.raises(ValueError, match="idle_events"):
            _spec(idle_events=8, burst_events=4)


class TestDerivedViews:
    def test_device_expansion_preserves_rack_order(self):
        spec = _spec()
        assert spec.num_devices == 4
        assert spec.device_specs() == (_CONV, _CONV, _ZNS, _ZNS)

    def test_heavy_tenants_burst_harder(self):
        spec = _spec(heavy_every=4, heavy_factor=3)
        assert spec.is_heavy(0) and not spec.is_heavy(1)
        heavy, plain = spec.tenant_profile(0), spec.tenant_profile(1)
        assert heavy.burst_zones == 3 * plain.burst_zones

    def test_heavy_every_zero_disables_heterogeneity(self):
        spec = _spec(heavy_every=0)
        assert not any(spec.is_heavy(t) for t in range(8))


def test_specs_are_hashable():
    assert len({_spec(), _spec(), _spec(seed=1)}) == 2
