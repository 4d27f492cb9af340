"""JSONL export: dict round-trips, file round-trips, part merging."""

import json

import pytest

from repro.obs.events import (
    EVENT_TYPES,
    FaultEvent,
    FlashOpEvent,
    GcEvent,
    HostRequestEvent,
    ReclaimEvent,
    RecoveryEvent,
    TranslationEvent,
    ZoneAppendEvent,
    ZoneMgmtEvent,
    ZoneTransitionEvent,
    event_from_dict,
    event_to_dict,
)
from repro.obs.jsonl import JsonlSink, merge_trace_parts, read_events
from repro.obs.tracer import Tracer

SAMPLES = [
    FlashOpEvent("flash.nand", "program", 3, 97, nbytes=4096, latency_us=200.0),
    FlashOpEvent("flash.service", "read", 1, 2, nbytes=4096, latency_us=81.0,
                 queued_us=16.0, t=1234.5),
    FlashOpEvent("zns.device", "erase", count=4),
    GcEvent("ftl.gc", "victim-selected", victim=7, valid_pages=12, free_blocks=3),
    ZoneTransitionEvent("zns.device", 5, "empty", "implicit-open",
                        "implicit-open", wp=0, t=10.0),
    ZoneAppendEvent("zns.device", 2, 128, npages=4),
    ReclaimEvent("block.dmzoned", "zone-reset", zone=9, free_zones=4),
    HostRequestEvent("hostio.request", "write", "complete", request_id=11,
                     latency_us=350.0, nbytes=4096, t=99.0),
    FaultEvent("flash.nand", "program-fail", block=3, page=97, retries=2,
               latency_us=90.0, op_index=1500),
    RecoveryEvent("ftl.ftl", "block-retired", block=3, pages_moved=12,
                  detail="program faults"),
    TranslationEvent("ftl.dftl", "gc", block=17, pages=9),
    ZoneMgmtEvent("zns.device", "reset", zone=6, latency_us=1500.0,
                  queued_behind=2),
]


class TestDictRoundTrip:
    @pytest.mark.parametrize("event", SAMPLES, ids=lambda e: e.kind)
    def test_event_round_trips_through_dict(self, event):
        clone = event_from_dict(event_to_dict(event))
        assert clone == event
        assert type(clone) is type(event)

    @pytest.mark.parametrize("event", SAMPLES, ids=lambda e: e.kind)
    def test_dict_is_json_safe(self, event):
        clone = event_from_dict(json.loads(json.dumps(event_to_dict(event))))
        assert clone == event

    def test_every_event_type_has_a_sample(self):
        assert {type(e) for e in SAMPLES} == set(EVENT_TYPES)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            event_from_dict({"event": "bogus"})


class TestJsonlFile:
    def test_sink_then_read_events_round_trips(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer()
        tracer.attach(JsonlSink(path))
        for event in SAMPLES:
            tracer.publish(event)
        assert list(read_events(path)) == SAMPLES

    def test_lines_are_flushed_as_written(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path)
        sink.on_event(SAMPLES[0])
        # Readable immediately, without close(): the fork-safety property.
        assert len(list(read_events(path))) == 1
        sink.close()

    def test_merge_trace_parts(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        for pid, chunk in ((100, SAMPLES[:3]), (200, SAMPLES[3:])):
            sink = JsonlSink(f"{path}.{pid}.part")
            for event in chunk:
                sink.on_event(event)
            sink.close()
        count = merge_trace_parts(path)
        assert count == len(SAMPLES)
        assert list(read_events(path)) == SAMPLES
        # Parts are consumed by the merge.
        assert list(tmp_path.glob("*.part")) == []

    def test_merge_with_no_parts_writes_empty_file(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        assert merge_trace_parts(path) == 0
        assert list(read_events(path)) == []
