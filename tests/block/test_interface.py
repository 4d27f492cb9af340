"""Protocol-conformance tests for BlockDevice and ZonedDevice."""

from repro.block.dmzoned import ZonedBlockDevice
from repro.block.interface import BlockDevice, ZonedDevice
from repro.block.ramdisk import RamDisk
from repro.flash.geometry import FlashGeometry, ZonedGeometry
from repro.ftl.device import ConventionalSSD
from repro.zns.device import ZNSDevice


class TestBlockDeviceProtocol:
    def test_all_three_implementations_conform(self):
        for device in (
            RamDisk(num_blocks=8),
            ConventionalSSD(FlashGeometry.small()),
            ZonedBlockDevice(ZNSDevice(ZonedGeometry.small())),
        ):
            assert isinstance(device, BlockDevice)

    def test_ranged_write_is_part_of_the_protocol(self):
        class PerBlockOnly:
            block_size = 4096
            num_blocks = 8

            def read_block(self, lba): ...
            def write_block(self, lba, data=None): ...
            def trim_block(self, lba): ...

        assert not isinstance(PerBlockOnly(), BlockDevice)
        PerBlockOnly.write_blocks = lambda self, start, count: None
        assert isinstance(PerBlockOnly(), BlockDevice)


class TestZonedDeviceProtocol:
    def test_zns_device_conforms(self):
        device = ZNSDevice(ZonedGeometry.small())
        assert isinstance(device, ZonedDevice)

    def test_ramdisk_is_block_not_zoned(self):
        disk = RamDisk(num_blocks=8)
        assert isinstance(disk, BlockDevice)
        assert not isinstance(disk, ZonedDevice)

    def test_translation_layer_is_block_not_zoned(self):
        layer = ZonedBlockDevice(ZNSDevice(ZonedGeometry.small()))
        assert isinstance(layer, BlockDevice)
        assert not isinstance(layer, ZonedDevice)

    def test_zns_device_is_not_block_device(self):
        # The whole point of the paper's interface split: a zoned device
        # does not offer random block writes.
        device = ZNSDevice(ZonedGeometry.small())
        assert not isinstance(device, BlockDevice)

    def test_protocol_surface_is_usable_generically(self):
        def zone_utilization(device: ZonedDevice) -> float:
            written = sum(zone.wp for zone in device.report_zones())
            capacity = device.zone_count * device.geometry.pages_per_zone
            return written / capacity

        device = ZNSDevice(ZonedGeometry.small())
        device.write(0, npages=3)
        assert 0.0 < zone_utilization(device) < 1.0
