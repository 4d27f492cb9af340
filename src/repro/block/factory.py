"""Device construction as data: ``DeviceSpec`` + :func:`build_stack`.

Before this module, every experiment hand-wired its own device stack --
the same dozen lines of geometry + config + facade assembly duplicated
across 20+ modules, impossible to ship across a process boundary. A
:class:`DeviceSpec` is the frozen, hashable description of one stack (the analogue of
:class:`~repro.experiments.base.ExperimentConfig` for hardware), and
:func:`build_stack` is the single place that turns a spec into a live
object tree. The fleet layer (:mod:`repro.fleet`) leans on this to
instantiate hundreds of heterogeneous stacks from pure data.

Specs name a stack *kind*:

===================  ========================================================
kind                 top-level object
===================  ========================================================
``conventional-ftl`` :class:`~repro.ftl.ftl.ConventionalFTL` (untimed)
``conventional-ssd`` :class:`~repro.ftl.device.ConventionalSSD`
``conventional-timed`` :class:`~repro.ftl.device.TimedConventionalSSD`
``dftl``             :class:`~repro.ftl.dftl.DemandPagedFTL`
``zns``              :class:`~repro.zns.device.ZNSDevice` (untimed)
``zns-timed``        :class:`~repro.zns.device.TimedZNSDevice`
``dmzoned``          :class:`~repro.block.dmzoned.ZonedBlockDevice` over ZNS
``dmzoned-timed``    :class:`~repro.hostio.timed.TimedZonedBlockDevice`
===================  ========================================================

A timed kind wraps the core its untimed twin's branch builds
(:func:`build_core`), so both read every spec field alike.

Geometry is a named preset (``small`` / ``bench``) plus optional field
overrides, so a spec stays plain, picklable data; adversity arms through
``fault_plan`` (a frozen :class:`~repro.faults.plan.FaultPlan`) scaled by
``fault_scale``, with ``fault_scale=0`` meaning the clean reference arm.
Live collaborators (a simulation engine, a reclaim scheduler, a tracer)
are *runtime* arguments to :func:`build_stack`, not spec fields.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any

from repro.faults.plan import FaultPlan

#: Stack kinds that accept a fault injector.
FAULT_CAPABLE_KINDS = frozenset({"conventional-ftl", "zns", "dmzoned"})

#: Each timed kind's untimed twin: the branch that builds the core its
#: wrapper times (:func:`build_core`).
UNTIMED_TWINS = {
    "conventional-timed": "conventional-ssd",
    "zns-timed": "zns",
    "dmzoned-timed": "dmzoned",
}

#: Stack kinds that require a simulation engine at build time.
TIMED_KINDS = frozenset(UNTIMED_TWINS)

#: The options a timed wrapper keeps; every other extra goes to its core.
WRAPPER_OPTIONS = ("prioritize_reads", "erase_suspend_slices", "scheduler")

KINDS = frozenset(
    {
        "conventional-ftl",
        "conventional-ssd",
        "conventional-timed",
        "dftl",
        "zns",
        "zns-timed",
        "dmzoned",
        "dmzoned-timed",
    }
)

ZONED_KINDS = frozenset({"zns", "zns-timed", "dmzoned", "dmzoned-timed"})

GEOMETRY_PRESETS = ("small", "bench")


def _freeze(value: Any) -> Any:
    """Recursively convert lists/dicts to hashable tuples (sorted for dicts)."""
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, set):
        return tuple(sorted(_freeze(v) for v in value))
    return value


def _thaw(value: Any) -> Any:
    """Inverse of :func:`_freeze` (tuples -> lists)."""
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


def _as_kwargs(pairs: tuple[tuple[str, Any], ...]) -> dict[str, Any]:
    return {name: _thaw(value) for name, value in pairs}


@dataclass(frozen=True)
class DeviceSpec:
    """A frozen, hashable description of one device stack.

    Attributes
    ----------
    kind:
        Stack kind (see the module table).
    geometry:
        Named flash-geometry preset: ``"small"`` or ``"bench"``.
    flash:
        :class:`~repro.flash.geometry.FlashGeometry` field overrides on
        top of the preset (e.g. ``{"pages_per_block": 128}``), stored as
        a sorted tuple of pairs. Pass a plain dict.
    blocks_per_zone / max_active_zones / max_open_zones:
        Zoned-geometry shape for ZNS-family kinds; ``None`` keeps the
        preset's value. Rejected on conventional kinds.
    ftl:
        :class:`~repro.ftl.ftl.FTLConfig` kwargs (conventional/dftl
        kinds) -- e.g. ``{"op_ratio": 0.18, "gc_policy": "greedy"}``.
    zoned_block:
        :class:`~repro.block.dmzoned.ZonedBlockConfig` kwargs (dmzoned
        kinds).
    extra:
        Remaining constructor kwargs of the top-level facade
        (``prioritize_reads``, ``erase_suspend_slices``,
        ...), spec-carried when they are plain data.
    store_data / striped / spare_blocks:
        Substrate switches, matching the underlying constructors.
    fault_plan:
        Optional frozen :class:`~repro.faults.plan.FaultPlan`; armed via
        an injector when ``fault_scale > 0`` and the kind supports it.
    fault_scale:
        Rate multiplier applied to the plan (0 = clean reference arm).
    cmt_bytes:
        DRAM budget for the ``dftl`` kind's Cached Mapping Table.
        ``None`` keeps the constructor default (8 translation pages).
    wl_policy:
        Wear-leveling policy ('none' / 'dynamic' / 'static') for FTL
        kinds; ``None`` keeps the default ('dynamic'). Spec-level sugar
        for the same key in ``ftl``.
    zone_mgmt:
        :class:`~repro.flash.timing.ZoneMgmtTiming` kwargs for zoned
        kinds (e.g. ``{"reset_us": 2000.0}``), stored as a sorted tuple
        of pairs; pass a plain dict. Empty (the default) keeps zone
        management free and silent -- the historical behavior.
    """

    kind: str
    geometry: str = "bench"
    flash: tuple[tuple[str, Any], ...] = ()
    blocks_per_zone: int | None = None
    max_active_zones: int | None = None
    max_open_zones: int | None = None
    ftl: tuple[tuple[str, Any], ...] = ()
    zoned_block: tuple[tuple[str, Any], ...] = ()
    extra: tuple[tuple[str, Any], ...] = ()
    store_data: bool = False
    striped: bool = True
    spare_blocks: int = 0
    fault_plan: FaultPlan | None = field(default=None)
    fault_scale: float = 1.0
    cmt_bytes: int | None = None
    wl_policy: str | None = None
    zone_mgmt: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown device kind {self.kind!r}; know {sorted(KINDS)}"
            )
        if self.geometry not in GEOMETRY_PRESETS:
            raise ValueError(
                f"unknown geometry preset {self.geometry!r}; "
                f"know {list(GEOMETRY_PRESETS)}"
            )
        for name in ("flash", "ftl", "zoned_block", "extra", "zone_mgmt"):
            value = getattr(self, name)
            if isinstance(value, Mapping):
                value = _freeze(value)
            else:
                value = _freeze(dict(value))
            object.__setattr__(self, name, value)
        if self.kind not in ZONED_KINDS:
            for name in ("blocks_per_zone", "max_active_zones", "max_open_zones"):
                if getattr(self, name) is not None:
                    raise ValueError(f"{name} only applies to zoned kinds, not {self.kind!r}")
            if self.spare_blocks:
                raise ValueError("spare_blocks only applies to zoned kinds")
            if self.zone_mgmt:
                raise ValueError("zone_mgmt only applies to zoned kinds")
        if self.zone_mgmt:
            # Validate eagerly: a bad knob should fail at spec time, not
            # deep inside build_stack.
            from repro.flash.timing import ZoneMgmtTiming

            ZoneMgmtTiming(**_as_kwargs(self.zone_mgmt))
        if self.ftl and self.kind not in (
            "conventional-ftl", "conventional-ssd", "conventional-timed", "dftl"
        ):
            raise ValueError(f"ftl config does not apply to kind {self.kind!r}")
        if self.zoned_block and self.kind not in ("dmzoned", "dmzoned-timed"):
            raise ValueError(f"zoned_block config does not apply to kind {self.kind!r}")
        if self.fault_scale < 0:
            raise ValueError("fault_scale must be >= 0")
        if self.fault_plan is not None and self.kind not in FAULT_CAPABLE_KINDS:
            raise ValueError(
                f"kind {self.kind!r} does not support fault injection "
                f"(supported: {sorted(FAULT_CAPABLE_KINDS)})"
            )
        if self.cmt_bytes is not None:
            if self.kind != "dftl":
                raise ValueError("cmt_bytes only applies to the 'dftl' kind")
            if self.cmt_bytes < 1:
                raise ValueError("cmt_bytes must be >= 1")
        if self.wl_policy is not None:
            if self.kind not in (
                "conventional-ftl", "conventional-ssd", "conventional-timed", "dftl"
            ):
                raise ValueError(
                    f"wl_policy does not apply to kind {self.kind!r}"
                )
            from repro.ftl.wearlevel import WL_POLICIES

            if self.wl_policy not in WL_POLICIES:
                raise ValueError(
                    f"unknown wl_policy {self.wl_policy!r}; "
                    f"choose from {list(WL_POLICIES)}"
                )

    # -- Convenience views -----------------------------------------------------

    @property
    def timed(self) -> bool:
        """True when building this spec requires a simulation engine."""
        return self.kind in TIMED_KINDS

    def with_faults(self, plan: FaultPlan | None, scale: float = 1.0) -> "DeviceSpec":
        """A copy with the fault plan/scale replaced."""
        return dataclasses.replace(self, fault_plan=plan, fault_scale=scale)

    # -- Geometry materialization ----------------------------------------------

    def flash_geometry(self):
        """The concrete :class:`~repro.flash.geometry.FlashGeometry`."""
        from repro.flash.geometry import FlashGeometry

        preset = FlashGeometry.small() if self.geometry == "small" else FlashGeometry.bench()
        overrides = _as_kwargs(self.flash)
        if not overrides:
            return preset
        base = {
            f.name: getattr(preset, f.name)
            for f in dataclasses.fields(FlashGeometry)
            if f.init
        }
        if "cell_type" in overrides:
            from repro.flash.cells import CellType

            overrides["cell_type"] = CellType[str(overrides["cell_type"]).upper()]
        base.update(overrides)
        return FlashGeometry(**base)

    def zoned_geometry(self):
        """The concrete :class:`~repro.flash.geometry.ZonedGeometry`."""
        from repro.flash.geometry import ZonedGeometry

        if self.kind not in ZONED_KINDS:
            raise ValueError(f"kind {self.kind!r} has no zoned geometry")
        preset = ZonedGeometry.small() if self.geometry == "small" else ZonedGeometry.bench()
        return ZonedGeometry(
            flash=self.flash_geometry(),
            blocks_per_zone=(
                preset.blocks_per_zone
                if self.blocks_per_zone is None
                else self.blocks_per_zone
            ),
            max_active_zones=(
                preset.max_active_zones
                if self.max_active_zones is None
                else self.max_active_zones
            ),
            max_open_zones=preset.max_open_zones
            if self.max_open_zones is None
            else self.max_open_zones,
        )


def _ftl_config(spec: DeviceSpec):
    """The spec's FTLConfig (or None), with wl_policy folded in."""
    from repro.ftl.ftl import FTLConfig

    kwargs = _as_kwargs(spec.ftl)
    if spec.wl_policy is not None:
        kwargs.setdefault("wl_policy", spec.wl_policy)
    if spec.kind == "conventional-timed":
        # Timed runs default to plane-parallel GC (4 destination
        # streams), matching real controllers.
        kwargs.setdefault("gc_streams", 4)
    return FTLConfig(**kwargs) if kwargs else None


def _mgmt_timing(spec: DeviceSpec):
    """The spec's ZoneMgmtTiming, or None when no knob is set."""
    if not spec.zone_mgmt:
        return None
    from repro.flash.timing import ZoneMgmtTiming

    return ZoneMgmtTiming(**_as_kwargs(spec.zone_mgmt))


def fault_injector(spec: DeviceSpec):
    """The armed fault injector a spec calls for, or None.

    :func:`build_stack` arms the stack it builds with it; the fleet
    builds its devices fault-free and binds one at the measurement
    boundary instead (:mod:`repro.fleet.rack`).
    """
    if spec.fault_plan is None or spec.fault_scale <= 0:
        return None
    from repro.faults import FaultInjector

    plan = spec.fault_plan.scaled(spec.fault_scale)
    if not plan.armed:
        return None
    return FaultInjector(plan)


def build_stack(spec: DeviceSpec, engine: Any = None, tracer: Any = None, **runtime: Any):
    """Turn a :class:`DeviceSpec` into a live device stack.

    ``engine`` is required for (and only accepted by) timed kinds;
    ``tracer`` threads the caller's telemetry bus through every layer.
    ``runtime`` passes non-serializable collaborators (e.g. a
    ``scheduler`` for ``dmzoned-timed``) straight to the constructors --
    anything spec-worthy belongs in the spec instead. A timed kind is
    :func:`build_core`'s core wrapped with the ``WRAPPER_OPTIONS``.
    """
    if not isinstance(spec, DeviceSpec):
        raise TypeError(f"build_stack takes a DeviceSpec, got {type(spec).__name__}")
    if spec.timed and engine is None:
        raise ValueError(f"kind {spec.kind!r} requires a simulation engine")
    if not spec.timed and engine is not None:
        raise ValueError(f"kind {spec.kind!r} does not take an engine")
    extra = {**_as_kwargs(spec.extra), **runtime}
    if not spec.timed:
        return _build_untimed(spec, spec.kind, tracer, extra)
    options = {name: value for name, value in extra.items() if name in WRAPPER_OPTIONS}
    core = build_core(spec, tracer, **runtime)
    if spec.kind == "conventional-timed":
        from repro.ftl.device import TimedConventionalSSD as Timed
    elif spec.kind == "zns-timed":
        from repro.zns.device import TimedZNSDevice as Timed
    else:
        from repro.hostio.timed import TimedZonedBlockDevice as Timed
    return Timed(engine, core, **options)


def build_core(spec: DeviceSpec, tracer: Any = None, **runtime: Any):
    """The untimed core a timed kind's wrapper times: the ``ftl`` of a
    ``conventional-ssd``, a ``zns`` device or a ``dmzoned`` layer, built
    by that twin's branch from every spec field and runtime argument but
    the ``WRAPPER_OPTIONS``.

    A warmed core is replayable (DESIGN.md §6): E3, E11 and A3 warm one
    and wrap a :func:`~repro.flash.state.replay_copy` of it per arm.
    """
    if spec.kind not in UNTIMED_TWINS:
        raise ValueError(f"kind {spec.kind!r} is not timed; build_stack builds it whole")
    extra = {
        name: value
        for name, value in {**_as_kwargs(spec.extra), **runtime}.items()
        if name not in WRAPPER_OPTIONS
    }
    core = _build_untimed(spec, UNTIMED_TWINS[spec.kind], tracer, extra)
    return core.ftl if spec.kind == "conventional-timed" else core


def _build_untimed(spec: DeviceSpec, kind: str, tracer: Any, extra: dict[str, Any]):
    """Branch ``kind`` (an untimed kind) of the factory, built from ``spec``."""
    faults = fault_injector(spec)
    if kind == "conventional-ftl":
        from repro.ftl.ftl import ConventionalFTL

        return ConventionalFTL(
            spec.flash_geometry(),
            _ftl_config(spec),
            tracer=tracer,
            faults=faults,
            **extra,
        )
    if kind == "conventional-ssd":
        from repro.ftl.device import ConventionalSSD

        return ConventionalSSD(
            spec.flash_geometry(),
            _ftl_config(spec),
            store_data=spec.store_data,
            tracer=tracer,
            **extra,
        )
    if kind == "dftl":
        from repro.ftl.dftl import DemandPagedFTL

        return DemandPagedFTL(
            spec.flash_geometry(),
            _ftl_config(spec),
            cmt_bytes=spec.cmt_bytes,
            tracer=tracer,
            **extra,
        )
    # zns, and dmzoned's layer over the same device.
    from repro.zns.device import ZNSDevice

    device = ZNSDevice(
        spec.zoned_geometry(),
        store_data=spec.store_data,
        spare_blocks=spec.spare_blocks,
        striped=spec.striped,
        tracer=tracer,
        faults=faults,
        mgmt_timing=_mgmt_timing(spec),
        **(extra if kind == "zns" else {}),
    )
    if kind == "zns":
        return device
    from repro.block.dmzoned import ZonedBlockConfig, ZonedBlockDevice

    return ZonedBlockDevice(
        device,
        ZonedBlockConfig(**_as_kwargs(spec.zoned_block)) if spec.zoned_block else None,
        **extra,
    )


__all__ = [
    "FAULT_CAPABLE_KINDS",
    "GEOMETRY_PRESETS",
    "KINDS",
    "TIMED_KINDS",
    "UNTIMED_TWINS",
    "WRAPPER_OPTIONS",
    "DeviceSpec",
    "build_core",
    "build_stack",
    "fault_injector",
]
