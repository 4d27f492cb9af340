"""Tests for DeviceSpec + build_stack: validation, equality, construction.

The spec is the process-boundary currency of device construction, so
the contract under test is that equal content makes equal, hashable
specs whatever the field order, that bad specs fail at spec time, and
that every kind builds the documented top-level type.
"""

import dataclasses

import pytest

from repro.block.dmzoned import ZonedBlockDevice
from repro.block.factory import (
    FAULT_CAPABLE_KINDS,
    KINDS,
    TIMED_KINDS,
    UNTIMED_TWINS,
    ZONED_KINDS,
    DeviceSpec,
    build_core,
    build_stack,
)
from repro.faults import FaultInjector, FaultPlan
from repro.ftl.device import ConventionalSSD, TimedConventionalSSD
from repro.ftl.dftl import DemandPagedFTL
from repro.ftl.ftl import ConventionalFTL
from repro.hostio.timed import TimedZonedBlockDevice
from repro.sim.engine import Engine
from repro.zns.device import TimedZNSDevice, ZNSDevice

_PLAN = FaultPlan(seed=7, program_fail_prob=0.002, grown_bad_blocks=((1000, 3),))


def _spec_for(kind: str) -> DeviceSpec:
    """A small, valid spec of each kind (zoned fields only where legal)."""
    if kind in ("zns", "zns-timed", "dmzoned", "dmzoned-timed"):
        return DeviceSpec(
            kind=kind, geometry="small", blocks_per_zone=2, max_active_zones=14
        )
    return DeviceSpec(kind=kind, geometry="small", ftl={"op_ratio": 0.11})


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown device kind"):
            DeviceSpec(kind="quantum-ssd")

    def test_unknown_geometry_rejected(self):
        with pytest.raises(ValueError, match="geometry preset"):
            DeviceSpec(kind="zns", geometry="huge")

    def test_zoned_fields_rejected_on_conventional(self):
        with pytest.raises(ValueError, match="zoned kinds"):
            DeviceSpec(kind="conventional-ftl", blocks_per_zone=2)
        with pytest.raises(ValueError, match="spare_blocks"):
            DeviceSpec(kind="conventional-ftl", spare_blocks=1)

    def test_ftl_config_rejected_on_zns(self):
        with pytest.raises(ValueError, match="ftl config"):
            DeviceSpec(kind="zns", ftl={"op_ratio": 0.1})

    def test_zoned_block_config_rejected_off_dmzoned(self):
        with pytest.raises(ValueError, match="zoned_block"):
            DeviceSpec(kind="conventional-ftl", zoned_block={"op_ratio": 0.1})

    def test_negative_fault_scale_rejected(self):
        with pytest.raises(ValueError, match="fault_scale"):
            DeviceSpec(kind="zns", fault_scale=-1.0)

    def test_fault_plan_rejected_on_incapable_kind(self):
        assert "conventional-ssd" not in FAULT_CAPABLE_KINDS
        with pytest.raises(ValueError, match="fault injection"):
            DeviceSpec(kind="conventional-ssd", fault_plan=_PLAN)

    def test_engine_required_for_timed_kinds(self):
        for kind in TIMED_KINDS:
            with pytest.raises(ValueError, match="requires a simulation engine"):
                build_stack(_spec_for(kind))

    def test_engine_rejected_on_untimed_kinds(self):
        with pytest.raises(ValueError, match="does not take an engine"):
            build_stack(_spec_for("zns"), engine=Engine())

    def test_build_stack_wants_a_spec(self):
        with pytest.raises(TypeError, match="DeviceSpec"):
            build_stack({"kind": "zns"})


class TestBuildStack:
    TOP_TYPES = {
        "conventional-ftl": ConventionalFTL,
        "conventional-ssd": ConventionalSSD,
        "conventional-timed": TimedConventionalSSD,
        "dftl": DemandPagedFTL,
        "zns": ZNSDevice,
        "zns-timed": TimedZNSDevice,
        "dmzoned": ZonedBlockDevice,
        "dmzoned-timed": TimedZonedBlockDevice,
    }

    def test_every_kind_builds_its_documented_type(self):
        assert set(self.TOP_TYPES) == set(KINDS)
        for kind, top in self.TOP_TYPES.items():
            spec = _spec_for(kind)
            stack = build_stack(spec, engine=Engine() if spec.timed else None)
            assert isinstance(stack, top), kind

    def test_dmzoned_wraps_a_zns_device(self):
        layer = build_stack(_spec_for("dmzoned"))
        assert isinstance(layer.device, ZNSDevice)

    def test_geometry_overrides_reach_the_stack(self):
        spec = DeviceSpec(
            kind="conventional-ftl", geometry="small", flash={"blocks_per_plane": 8}
        )
        assert build_stack(spec).geometry.blocks_per_plane == 8

    def test_ftl_config_reaches_the_stack(self):
        ftl = build_stack(
            DeviceSpec(kind="conventional-ftl", geometry="small", ftl={"op_ratio": 0.18})
        )
        assert ftl.config.op_ratio == 0.18

    def test_fault_plan_arms_an_injector(self):
        spec = _spec_for("conventional-ftl").with_faults(_PLAN, 2.0)
        ftl = build_stack(spec)
        assert isinstance(ftl.nand.faults, FaultInjector)
        # The injector carries the *scaled* plan.
        assert ftl.nand.faults.plan.program_fail_prob == pytest.approx(
            2.0 * _PLAN.program_fail_prob
        )

    def test_fault_scale_zero_is_the_clean_reference_arm(self):
        spec = _spec_for("conventional-ftl").with_faults(_PLAN, 0.0)
        assert build_stack(spec).nand.faults is None

    def test_with_faults_none_disarms(self):
        spec = _spec_for("zns").with_faults(_PLAN).with_faults(None)
        assert spec.fault_plan is None
        assert build_stack(spec).nand.faults is None


def _substrate(core) -> tuple:
    """The substrate switches a built core shows: store_data, and for a
    zoned core its zone count, spares and striping."""
    if isinstance(core, ConventionalFTL):
        return (core.nand.store_data,)
    device = core.device if isinstance(core, ZonedBlockDevice) else core
    return device.nand.store_data, device.zone_count, len(device.ftl._spares), device.striped


class TestTimedCores:
    """A timed kind is its untimed twin's core plus an engine."""

    @pytest.mark.parametrize("kind", sorted(TIMED_KINDS))
    def test_a_timed_core_reads_the_spec_as_its_twin_does(self, kind):
        fields = {"store_data": True}
        if kind in ZONED_KINDS:
            fields.update(spare_blocks=2, striped=False)
        spec = dataclasses.replace(_spec_for(kind), **fields)
        twin = build_stack(dataclasses.replace(spec, kind=UNTIMED_TWINS[kind]))
        core = build_core(spec)
        assert _substrate(core) == _substrate(twin.ftl if kind == "conventional-timed" else twin)
        assert _substrate(core) != _substrate(build_core(_spec_for(kind)))

    @pytest.mark.parametrize("kind", sorted(TIMED_KINDS))
    def test_the_wrapper_times_the_core_build_core_builds(self, kind):
        spec = dataclasses.replace(_spec_for(kind), store_data=True)
        stack = build_stack(spec, engine=Engine())
        core = {"conventional-timed": "ftl", "dmzoned-timed": "layer", "zns-timed": "device"}[kind]
        assert _substrate(getattr(stack, core)) == _substrate(build_core(spec))

    def test_timed_conventional_defaults_to_four_gc_streams(self):
        spec = DeviceSpec(kind="conventional-timed", geometry="small")
        assert build_core(spec).config.gc_streams == 4
        two_streams = dataclasses.replace(spec, ftl={"gc_streams": 2})
        assert build_core(two_streams).config.gc_streams == 2
        untimed = dataclasses.replace(spec, kind="conventional-ftl")
        assert build_stack(untimed).config.gc_streams == 1

    def test_wrapper_options_stay_on_the_wrapper(self):
        spec = dataclasses.replace(
            _spec_for("conventional-timed"),
            extra={"prioritize_reads": True, "erase_suspend_slices": 4},
        )
        ssd = build_stack(spec, engine=Engine())
        assert (ssd.service.prioritize_reads, ssd.service.erase_suspend_slices) == (True, 4)
        assert isinstance(build_core(spec), ConventionalFTL)

    def test_build_core_wants_a_timed_kind(self):
        with pytest.raises(ValueError, match="not timed"):
            build_core(_spec_for("zns"))


def test_specs_are_hashable():
    assert len({_spec_for("zns"), _spec_for("zns"), _spec_for("dmzoned")}) == 2
    a = DeviceSpec(kind="dftl", ftl={"op_ratio": 0.11, "gc_policy": "greedy"})
    b = DeviceSpec(kind="dftl", ftl={"gc_policy": "greedy", "op_ratio": 0.11})
    assert a == b and hash(a) == hash(b)
    assert _spec_for("zns") != dataclasses.replace(_spec_for("zns"), max_active_zones=8)


def test_legacy_spec_shim_is_gone():
    # The deprecated legacy_spec() shim stays removed.
    import repro.block.factory as factory

    assert not hasattr(factory, "legacy_spec")


class TestMappingAndWearLevelFields:
    def test_cmt_bytes_reaches_the_stack(self):
        spec = DeviceSpec(
            kind="dftl", geometry="small", ftl={"op_ratio": 0.11},
            cmt_bytes=2 * 4096,
        )
        device = build_stack(spec)
        assert device.store.capacity_pages == 2

    def test_wl_policy_reaches_the_stack(self):
        for kind in ("conventional-ftl", "dftl"):
            spec = DeviceSpec(
                kind=kind, geometry="small", ftl={"op_ratio": 0.11},
                wl_policy="static",
            )
            assert build_stack(spec).wearlevel.name == "static"

    def test_cmt_bytes_rejected_off_dftl(self):
        with pytest.raises(ValueError, match="cmt_bytes"):
            DeviceSpec(kind="conventional-ftl", cmt_bytes=4096)
        with pytest.raises(ValueError, match="cmt_bytes"):
            DeviceSpec(kind="dftl", cmt_bytes=0)

    def test_wl_policy_validated(self):
        with pytest.raises(ValueError, match="wl_policy"):
            DeviceSpec(kind="zns", blocks_per_zone=2, wl_policy="dynamic")
        with pytest.raises(ValueError, match="wl_policy"):
            DeviceSpec(kind="conventional-ftl", wl_policy="bogus")
