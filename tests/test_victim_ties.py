"""A greedy victim tie goes to the lowest id, whatever the pool's history.

DESIGN.md §6, "A victim tie goes to the lowest id": two devices whose
sealed pools hold the same blocks (zones) with the same valid counts
must collect them in the same order, even when one pool grew and
shrank before it reached that state. Collection order decides where
valid data lands and so every later number; if it followed the pool's
history, a copied device would not replay its original.

Each side seals the same four empty (all-invalid) units, every one a
tie. The second side first seals and collects six others, so its pool
saw more adds and discards than the first's. The placement store and the
LSM zoned backend reclaim through their zone log, as dm-zoned does, and
are held to the same rule.
"""

import pytest

from repro.apps.lsm.backends import ZoneFileBackend
from repro.block.dmzoned import ZonedBlockDevice
from repro.flash.geometry import FlashGeometry, ZonedGeometry
from repro.ftl.ftl import ConventionalFTL, FTLConfig
from repro.placement.store import ZonedObjectStore
from repro.zns.device import ZNSDevice

TIED = (9, 2, 12, 5)
PREVIOUS = (20, 21, 22, 23, 24, 25)


def _ftl_seal(ftl: ConventionalFTL, blocks) -> None:
    ppb = ftl.geometry.pages_per_block
    for block in blocks:
        ftl._free.remove(block)
        ftl.nand.program_run(block, ppb, "host")
        ftl._seal(block)


def _ftl_victims(ftl: ConventionalFTL, n: int) -> list[int]:
    victims = []
    for _ in range(n):
        before = ftl.sealed_blocks
        ftl.collect_once()
        (victim,) = before - ftl.sealed_blocks
        victims.append(victim)
    return victims


def test_conventional_ftl_ties_go_to_the_lowest_block():
    fresh = ConventionalFTL(FlashGeometry.small(), FTLConfig(op_ratio=0.25))
    _ftl_seal(fresh, TIED)
    churned = ConventionalFTL(FlashGeometry.small(), FTLConfig(op_ratio=0.25))
    _ftl_seal(churned, PREVIOUS)
    _ftl_victims(churned, len(PREVIOUS))
    _ftl_seal(churned, reversed(TIED))
    assert fresh.sealed_blocks == churned.sealed_blocks == frozenset(TIED)

    victims = _ftl_victims(fresh, len(TIED))
    assert victims == _ftl_victims(churned, len(TIED)) == sorted(TIED)
    fresh.check_invariants()
    churned.check_invariants()


def _dmz_seal(dmz: ZonedBlockDevice, zones) -> None:
    for zone in zones:
        dmz.log.free.remove(zone)
        dmz.log.seal(zone)


def _dmz_victims(dmz: ZonedBlockDevice, n: int) -> list[int]:
    victims = []
    for _ in range(n):
        dmz.reclaim_step()
        victims.append(dmz.log.free[-1])
    return victims


def test_dmzoned_ties_go_to_the_lowest_zone():
    fresh = ZonedBlockDevice(ZNSDevice(ZonedGeometry.small()))
    _dmz_seal(fresh, TIED)
    churned = ZonedBlockDevice(ZNSDevice(ZonedGeometry.small()))
    _dmz_seal(churned, PREVIOUS)
    _dmz_victims(churned, len(PREVIOUS))
    _dmz_seal(churned, reversed(TIED))

    victims = _dmz_victims(fresh, len(TIED))
    assert victims == _dmz_victims(churned, len(TIED)) == sorted(TIED)
    fresh.check_invariants()
    churned.check_invariants()


def _log_seal(owner, zones) -> None:
    """Fill each zone with pages nothing references, and seal it."""
    log = owner.log
    for zone in zones:
        log.free.remove(zone)
        owner.device.write(zone, npages=owner.device.geometry.pages_per_zone, build_ops=False)
        log.seal(zone)


def _log_victims(owner, n: int) -> list[int]:
    victims = []
    for _ in range(n):
        assert owner.log.reclaim(len(owner.log.free) + 1, owner._evacuate) is None
        victims.append(owner.log.free[-1])
    return victims


@pytest.mark.parametrize(
    "build", [ZonedObjectStore, ZoneFileBackend], ids=["placement-store", "lsm-zoned-backend"]
)
def test_zone_log_owners_ties_go_to_the_lowest_zone(build):
    fresh = build(ZNSDevice(ZonedGeometry.small()))
    _log_seal(fresh, TIED)
    churned = build(ZNSDevice(ZonedGeometry.small()))
    _log_seal(churned, PREVIOUS)
    _log_victims(churned, len(PREVIOUS))
    _log_seal(churned, reversed(TIED))

    victims = _log_victims(fresh, len(TIED))
    assert victims == _log_victims(churned, len(TIED)) == sorted(TIED)
    assert fresh.log.free_resets == len(TIED)
    fresh.check_invariants()
    churned.check_invariants()
