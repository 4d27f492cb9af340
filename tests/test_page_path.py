"""The scalar page path: an address is checked and resolved once.

DESIGN.md §6: a layer range-checks an address where the address enters
it, resolves it to ``(block, offset)`` once, and hands down or reuses
what it resolved. Two halves hold that in place. The *call budget* pins
what one steady-state operation costs as a count of Python ``call``
events (a timing would drift with the box), so a re-derivation creeping
back in moves a number. The *strictness table* pins what the path still
refuses -- every range, order, bad-block and zone-state check, with its
exception type and message -- and is green on the commit before the rule
was applied (the ``split_page`` rows aside), so nothing got cheaper by
getting laxer.
"""

import ast
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.apps.lsm.backends import ExtentAllocator
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.flash.errors import (
    BadBlockError,
    ProgramOrderError,
    ReadUnwrittenError,
)
from repro.flash.geometry import FlashGeometry, ZonedGeometry
from repro.flash.nand import NandArray
from repro.flash.ops import FlashOp, OpKind
from repro.ftl.device import ConventionalSSD, TimedConventionalSSD
from repro.ftl.ftl import ConventionalFTL, FTLConfig, UnmappedReadError
from repro.sim.engine import Engine
from repro.zns.device import ZNSDevice
from repro.zns.errors import (
    WritePointerError,
    ZoneFullError,
    ZoneOfflineError,
    ZoneReadOnlyError,
    ZoneStateError,
)

# -- The call budget ---------------------------------------------------------


def python_calls(operation) -> int:
    """Python ``call`` events under ``operation`` (a lambda, not counted)."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        operation()
    finally:
        sys.setprofile(None)
    return calls - 1


class TestCallBudget:
    """One steady-state op on an untraced, fault-free device, ``bench``
    unless the row says otherwise.

    Ceilings only go down; raising one needs a sentence in DESIGN.md §6.
    """

    def test_nand_program_and_read(self):
        nand = NandArray(FlashGeometry.bench())
        nand.program(0, "host")
        assert python_calls(lambda: nand.program(1, "host")) <= 2
        assert python_calls(lambda: nand.read(1, "host")) <= 2

    def test_zns_append_and_read(self):
        device = ZNSDevice(ZonedGeometry.bench())
        device.append(0)  # the implicit open is not steady state
        assert python_calls(lambda: device.append(0)) <= 7
        assert python_calls(lambda: device.read(0, 1)) <= 5

    def test_ftl_write_overwrite_and_read(self):
        ftl = ConventionalFTL(FlashGeometry.bench())
        ftl.write(0)  # opens the first active block
        assert python_calls(lambda: ftl.write(1)) <= 7
        assert python_calls(lambda: ftl.write(0)) <= 8  # + one invalidation
        assert python_calls(lambda: ftl.read(1)) <= 5

    def test_ftl_collect_once(self):
        """A steady-state victim on ``small``: a fill and one random
        overwrite pass leave it valid pages that cross a GC block boundary."""
        ftl = ConventionalFTL(FlashGeometry.small(), FTLConfig(op_ratio=0.07))
        n = ftl.logical_pages
        ftl.write_pages(np.arange(n))
        ftl.write_pages(np.random.default_rng(0).integers(0, n, n))
        assert python_calls(lambda: ftl.collect_once(build_ops=False)) <= 24

    def test_take_free_block_from_a_small_pool(self):
        ftl = ConventionalFTL(FlashGeometry.bench())
        del ftl._free[2:]
        assert python_calls(lambda: ftl._take_free_block()) <= 2

    @staticmethod
    def _two_block_holes(strategy: str) -> ExtentAllocator:
        """A 256-block allocator filled a block at a time, then every other
        pair freed: the free list is 64 runs of two blocks."""
        allocator = ExtentAllocator(256, strategy, rng=np.random.default_rng(0))
        held = [allocator.allocate(1) for _ in range(256)]
        for index, extents in enumerate(held):
            if index % 4 < 2:
                allocator.free(extents)
        return allocator

    def test_extent_allocate_one_block_aged(self):
        """A WAL page: two of the calls are numpy's own, inside the permutation."""
        allocator = self._two_block_holes("aged")
        assert python_calls(lambda: allocator.allocate(1)) <= 4

    def test_extent_free_of_a_three_extent_file(self):
        allocator = self._two_block_holes("first-fit")
        extents = allocator.allocate(5)
        assert len(extents) == 3
        assert python_calls(lambda: allocator.free(extents)) <= 1

    def test_conventional_ssd_write_blocks(self):
        """Eight pages into an open active block: one program run, eight maps."""
        ssd = ConventionalSSD(FlashGeometry.bench())
        ssd.write_blocks(0, 8)
        assert python_calls(lambda: ssd.write_blocks(8, 8)) <= 17

    def test_zns_simple_copy(self):
        device = ZNSDevice(ZonedGeometry.bench())
        device.write(0, npages=8, build_ops=False)
        device.simple_copy([(0, 0)], 1, build_ops=False)  # the implicit open
        assert python_calls(lambda: device.simple_copy([(0, 1)], 1, build_ops=False)) <= 9
        four = [(0, offset) for offset in range(2, 6)]
        assert python_calls(lambda: device.simple_copy(four, 1, build_ops=False)) <= 25

    def test_timed_read_and_write_on_an_idle_drive(self):
        """One uncontended request through ``TimedConventionalSSD``, from
        submit until it completes: the front end, the command, the service
        model's plane and channel holds and the engine's events, with the
        idle collector's polls in that span."""
        engine = Engine()
        ssd = TimedConventionalSSD(engine, ConventionalFTL(FlashGeometry.bench()))
        engine.run(until=ssd.submit_write(0))  # opens the first active block
        assert python_calls(lambda: engine.run(until=ssd.submit_read(0))) <= 68
        assert python_calls(lambda: engine.run(until=ssd.submit_write(1))) <= 104


def test_the_cached_page_latencies_cannot_go_stale():
    """``NandArray`` computes its per-page program/read latencies once.

    Sound because ``TimingModel`` and ``FlashGeometry`` are frozen and no
    module rebinds an array's ``timing`` after construction.
    """
    nand = NandArray(FlashGeometry.small())
    with pytest.raises(AttributeError):
        nand.timing.program_us = 1.0
    with pytest.raises(AttributeError):
        nand.geometry.page_size = 1
    page_size = nand.geometry.page_size
    assert nand.program(0, "host") == nand.timing.program_total_us(page_size)
    assert nand.read(0, "host")[1] == nand.timing.read_total_us(page_size)
    root = Path(repro.__file__).parent
    rebinding = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Attribute)
        and target.attr == "timing"
        and not (isinstance(target.value, ast.Name) and target.value.id == "self")
    ]
    assert rebinding == []


# -- Nothing got less strict ---------------------------------------------------

SMALL = FlashGeometry.small()
PAGES = SMALL.total_pages
PPB = SMALL.pages_per_block


def _nand(programmed: int = 0, retire: int | None = None) -> NandArray:
    nand = NandArray(SMALL)
    for page in range(programmed):
        nand.program(page, "host")
    if retire is not None:
        nand.wear.mark_bad(retire)
    return nand


def _page_range_rows():
    entries = {
        "program": lambda page: _nand().program(page, "host"),
        "read": lambda page: _nand().read(page, "host"),
        "copy_page-src": lambda page: _nand().copy_page(page, 0, "gc"),
        "copy_page-dst": lambda page: _nand(1).copy_page(0, page, "gc"),
        "sense_for_copy": lambda page: _nand().sense_for_copy(page),
        "block_of_page": SMALL.block_of_page,
        "page_offset_in_block": SMALL.page_offset_in_block,
        "split_page": lambda page: SMALL.split_page(page),
        "map-ppn": lambda page: ConventionalFTL(SMALL).map.map(0, page),
    }
    for name, entry in entries.items():
        for page in (-1, PAGES):
            yield pytest.param(
                lambda entry=entry, page=page: entry(page),
                IndexError,
                rf"page {page} out of range \[0, {PAGES}\)",
                id=f"{name}({page})",
            )


def _lpn_range_rows():
    logical = ConventionalFTL(SMALL).logical_pages
    entries = {
        "write": lambda ftl, lpn: ftl.write(lpn),
        "read": lambda ftl, lpn: ftl.read(lpn),
        "map": lambda ftl, lpn: ftl.map.map(lpn, 0),
        "lookup": lambda ftl, lpn: ftl.map.lookup(lpn),
        "trim": lambda ftl, lpn: ftl.trim(lpn),
    }
    for name, entry in entries.items():
        for lpn in (-1, logical):
            yield pytest.param(
                lambda entry=entry, lpn=lpn: entry(ConventionalFTL(SMALL), lpn),
                IndexError,
                r"lpn %d out of range \[0, %d\)" % (lpn, logical),
                id=f"ftl.{name}({lpn})",
            )


def _zns(state: str | None = None, written: int = 0) -> ZNSDevice:
    device = ZNSDevice(ZonedGeometry.small())
    if written:
        device.write(0, npages=written)
    if state == "full":
        device.finish_zone(0)
    elif state == "read-only":
        device.zones[0].transition_read_only()
    elif state == "offline":
        device.zones[0].transition_offline()
    return device


def _zone_rows():
    zones = _zns().zone_count
    ppz = ZonedGeometry.small().pages_per_zone
    for zone in (-1, zones):
        message = r"zone %d out of range \[0, %d\)" % (zone, zones)
        for name, entry in {
            "write": lambda zone: _zns().write(zone),
            "append": lambda zone: _zns().append(zone),
            "read": lambda zone: _zns().read(zone, 0),
            "simple_copy-dst": lambda zone: _zns(written=1).simple_copy([(0, 0)], zone),
            "simple_copy-src": lambda zone: _zns().simple_copy([(zone, 0)], 1),
            "block_of_offset": lambda zone: _zns().block_of_offset(zone, 0),
        }.items():
            yield pytest.param(
                lambda entry=entry, zone=zone: entry(zone),
                IndexError, message, id=f"zns.{name}(zone={zone})",
            )
    yield pytest.param(
        lambda: _zns().block_of_offset(0, ppz),
        IndexError, f"offset {ppz} beyond zone 0", id="zns.block_of_offset(past-zone)",
    )
    yield pytest.param(
        lambda: _zns(written=2).read(0, 2),
        ZoneStateError, "read at offset 2 of zone 0, wp=2", id="zns.read(at-wp)",
    )
    yield pytest.param(
        lambda: _zns(written=2).read(0, -1),
        ZoneStateError, "read at offset -1 of zone 0, wp=2", id="zns.read(-1)",
    )
    yield pytest.param(
        lambda: _zns(written=2).write(0, offset=1),
        WritePointerError, "write at offset 1 but zone 0 wp is 2", id="zns.write(stale-wp)",
    )
    yield pytest.param(
        lambda: _zns(written=2).write(0, npages=ppz - 1),
        ZoneFullError,
        f"write of {ppz - 1} pages exceeds zone 0 remaining capacity {ppz - 2}",
        id="zns.write(overfill)",
    )
    for state, error, message in (
        ("full", ZoneStateError, "zone 0 is full"),
        ("read-only", ZoneReadOnlyError, "zone 0 is read-only"),
        ("offline", ZoneOfflineError, "zone 0 is offline"),
    ):
        yield pytest.param(
            lambda state=state: _zns(state, written=1).write(0),
            error, message, id=f"zns.write({state})",
        )
        yield pytest.param(
            lambda state=state: _zns(state, written=1).append(0),
            error, message, id=f"zns.append({state})",
        )
    yield pytest.param(
        lambda: _zns("offline", written=1).read(0, 0),
        ZoneOfflineError, "zone 0 is offline", id="zns.read(offline)",
    )


STRICTNESS = [
    *_page_range_rows(),
    pytest.param(
        lambda: _nand().program(1, "host"),
        ProgramOrderError,
        "page 1 is offset 1 of block 0; next programmable offset is 0",
        id="program(out-of-order)",
    ),
    pytest.param(
        lambda: _nand(1).program(0, "host"),
        ProgramOrderError,
        "page 0 is offset 0 of block 0; next programmable offset is 1",
        id="program(reprogram)",
    ),
    pytest.param(
        lambda: _nand(PPB).program_next(0, "host"),
        ProgramOrderError, "block 0 is full", id="program_next(full)",
    ),
    pytest.param(
        lambda: _nand().program_next(SMALL.total_blocks, "host"),
        IndexError,
        r"block %d out of range \[0, %d\)" % (SMALL.total_blocks, SMALL.total_blocks),
        id="program_next(block-range)",
    ),
    pytest.param(
        lambda: _nand(1).copy_page(0, 2, "gc"),
        ProgramOrderError,
        "copy destination page 2 out of order in block 0",
        id="copy_page(out-of-order)",
    ),
    pytest.param(
        lambda: _nand(1).read(1, "host"),
        ReadUnwrittenError, "page 1 has not been programmed", id="read(unwritten)",
    ),
    pytest.param(
        lambda: _nand(1).sense_for_copy(1),
        ReadUnwrittenError, "page 1 has not been programmed", id="sense_for_copy(unwritten)",
    ),
    pytest.param(
        lambda: _nand(1).copy_page(1, PPB, "gc"),
        ReadUnwrittenError, "page 1 has not been programmed", id="copy_page(unwritten-src)",
    ),
    pytest.param(
        lambda: _nand(retire=0).program(0, "host"),
        BadBlockError, "program on retired block 0", id="program(retired)",
    ),
    pytest.param(
        lambda: _nand(retire=0).program_next(0, "host"),
        BadBlockError, "program on retired block 0", id="program_next(retired)",
    ),
    pytest.param(
        lambda: _nand(1, retire=0).read(0, "host"),
        BadBlockError, "read on retired block 0", id="read(retired)",
    ),
    pytest.param(
        lambda: _nand(1, retire=0).sense_for_copy(0),
        BadBlockError, "read on retired block 0", id="sense_for_copy(retired)",
    ),
    pytest.param(
        lambda: _nand(1, retire=0).copy_page(0, PPB, "gc"),
        BadBlockError, "read on retired block 0", id="copy_page(retired-src)",
    ),
    pytest.param(
        lambda: _nand(1, retire=1).copy_page(0, PPB, "gc"),
        BadBlockError, "copy into retired block 1", id="copy_page(retired-dst)",
    ),
    pytest.param(
        lambda: _nand(retire=0).erase(0, "host"),
        BadBlockError, "erase on retired block 0", id="erase(retired)",
    ),
    *_lpn_range_rows(),
    pytest.param(
        lambda: ConventionalFTL(SMALL).read(0),
        UnmappedReadError, "lpn 0 is unmapped", id="ftl.read(unmapped)",
    ),
    pytest.param(
        lambda: ConventionalFTL(SMALL).write(0, stream=1),
        ValueError, r"stream 1 out of range \[0, 1\)", id="ftl.write(stream-range)",
    ),
    *_zone_rows(),
]


@pytest.mark.parametrize("operation, error, message", STRICTNESS)
def test_the_page_path_refuses_what_it_refused(operation, error, message):
    with pytest.raises(error, match=f"^{message}$") as raised:
        operation()
    assert type(raised.value) is error


class _RecordingInjector(FaultInjector):
    """Armed (a grown bad block scheduled past any run) but never firing."""

    def __init__(self):
        super().__init__(FaultPlan(grown_bad_blocks=((10**12, 0),)))
        self.seen: list[tuple[str, int, int]] = []

    def on_program(self, block, page, latency_us):
        self.seen.append(("program", block, page))
        return super().on_program(block, page, latency_us)

    def on_read(self, block, page):
        self.seen.append(("read", block, page))
        return super().on_read(block, page)


def test_an_armed_injector_sees_every_program_and_read_with_its_address():
    flash = ZonedGeometry.small().flash
    ppb = flash.pages_per_block
    faults = _RecordingInjector()
    device = ZNSDevice(ZonedGeometry.small(), faults=faults)
    assert device.nand.faults is faults
    ops = device.write(0, npages=3)
    _, read_op = device.read(0, 2)
    assert faults.seen == [
        *(("program", op.page // ppb, op.page) for op in ops),
        ("read", read_op.page // ppb, read_op.page),
    ]
    assert [op.block for op in ops] == [op.page // ppb for op in ops]

    faults = _RecordingInjector()
    ftl = ConventionalFTL(flash, faults=faults)
    (program,) = ftl.write(5)
    read_op = ftl.read(5)
    assert faults.seen == [
        ("program", program.block, program.page),
        ("read", read_op.block, read_op.page),
    ]
    assert program.block == program.page // ppb and read_op.page == program.page


class TestFlashOpIsAValue:
    def test_rejects_attribute_assignment(self):
        op = FlashOp(OpKind.READ, 1, 2, 3.0)
        with pytest.raises(AttributeError):
            op.block = 9
        with pytest.raises(AttributeError):
            op.extra = 1

    def test_compares_and_hashes_by_value(self):
        op = FlashOp(OpKind.PROGRAM, 1, 2, 3.0)
        same = FlashOp(OpKind.PROGRAM, 1, 2, 3.0, True)
        assert op == same and hash(op) == hash(same)
        assert op != FlashOp(OpKind.PROGRAM, 1, 2, 3.0, uses_channel=False)
        assert len({op, same, FlashOp(OpKind.COPY, 1, 2, 3.0)}) == 2

    def test_defaults_and_repr(self):
        assert FlashOp(OpKind.ERASE, 0, None, 1.0).uses_channel is True
        copy = FlashOp(kind=OpKind.COPY, block=0, page=1, latency_us=1.0, uses_channel=False)
        assert repr(copy).startswith("FlashOp(kind=") and repr(copy).endswith("uses_channel=False)")
