"""Environment-driven tracer wiring (the CLI's --trace/--metrics-out path)."""

import os

import pytest

from repro.flash.geometry import FlashGeometry
from repro.ftl.device import ConventionalSSD
from repro.obs import runtime
from repro.obs.jsonl import merge_trace_parts, read_events
from repro.obs.sinks import RecordingSink


@pytest.fixture(autouse=True)
def clean_runtime(monkeypatch):
    monkeypatch.delenv(runtime.TRACE_ENV, raising=False)
    monkeypatch.delenv(runtime.METRICS_ENV, raising=False)
    runtime._reset_for_tests()
    yield
    runtime._reset_for_tests()


class TestGlobalSinks:
    def test_installed_sink_reaches_new_devices(self):
        sink = runtime.install_global_sink(RecordingSink())
        try:
            device = ConventionalSSD(FlashGeometry.small())
            device.write_block(0)
        finally:
            runtime.remove_global_sink(sink)
        assert any(e.layer == "flash.nand" for e in sink.events)

    def test_removed_sink_not_attached_to_new_tracers(self):
        sink = runtime.install_global_sink(RecordingSink())
        runtime.remove_global_sink(sink)
        tracer = runtime.new_tracer()
        assert sink not in tracer.sinks


class TestEnvTrace:
    def test_trace_env_writes_part_file_and_merges(self, tmp_path, monkeypatch):
        path = str(tmp_path / "trace.jsonl")
        monkeypatch.setenv(runtime.TRACE_ENV, path)
        device = ConventionalSSD(FlashGeometry.small())
        device.write_block(0)
        device.read_block(0)
        runtime.flush_trace()
        part = f"{path}.{os.getpid()}.part"
        assert os.path.exists(part)
        count = merge_trace_parts(path)
        events = list(read_events(path))
        assert count == len(events) > 0
        assert {e.op for e in events} == {"program", "read"}

    def test_no_env_no_files(self, tmp_path):
        device = ConventionalSSD(FlashGeometry.small())
        device.write_block(0)
        runtime.flush_trace()
        assert list(tmp_path.iterdir()) == []


class TestMetricsAggregator:
    def test_absent_when_env_unset(self):
        assert runtime.metrics_aggregator() is None

    def test_collects_flash_ops_when_enabled(self, monkeypatch):
        monkeypatch.setenv(runtime.METRICS_ENV, "1")
        aggregator = runtime.metrics_aggregator()
        assert aggregator is not None
        aggregator.reset()
        device = ConventionalSSD(FlashGeometry.small())
        device.write_block(0)
        assert aggregator.frame.counter("flash.nand.program.ops") == 1
