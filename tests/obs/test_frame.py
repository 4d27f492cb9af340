"""Tests for MetricsFrame: exact merge algebra, quantiles, series, the sink.

The load-bearing property is that ``merge`` is exactly associative --
integer sums, order-free maxima, series concatenated in the order given
-- so sharded telemetry merged in a fixed order reassembles a serial run
byte-for-byte. Swapping two frames changes only the order of their
series' samples. Hypothesis drives random frames and random partitions
at those claims. Series keep exact samples: their quantiles and means
must round exactly as the experiments' golden numbers were computed.
"""

import json
import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.events import (
    FaultEvent,
    FlashOpEvent,
    HostRequestEvent,
    RecoveryEvent,
)
from repro.obs.frame import (
    FRAME_VERSION,
    FrameSink,
    MetricsFrame,
    OpCounter,
    normalize_metric_key,
)


class TestNormalizeMetricKey:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("Read P99 (µs)", "read_p99_us"),
            ("flash.nand. Program-Ops", "flash.nand.program_ops"),
            ("fleet.request.read.latency_us", "fleet.request.read.latency_us"),
            ("  Weird__KEY  ", "weird_key"),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_metric_key(raw) == expected

    @given(st.text(min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, raw):
        once = normalize_metric_key(raw)
        assert normalize_metric_key(once) == once


# -- Random-frame strategy ---------------------------------------------------

_KEYS = st.sampled_from(["a.ops", "a.bytes", "b.ops", "lat_us", "c"])
_LATENCIES = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def frames(draw) -> MetricsFrame:
    frame = MetricsFrame()
    for key, amount in draw(
        st.lists(st.tuples(_KEYS, st.integers(1, 1000)), max_size=6)
    ):
        frame.add(key, amount)
    for key, value in draw(st.lists(st.tuples(_KEYS, _LATENCIES), max_size=4)):
        frame.peak(key, value)
    for key, value in draw(st.lists(st.tuples(_KEYS, _LATENCIES), max_size=8)):
        frame.sample(key, value)
    return frame


class TestMergeAlgebra:
    @given(a=frames(), b=frames())
    @settings(max_examples=30, deadline=None)
    def test_commutative(self, a, b):
        # Counters and maxima commute exactly; a series concatenates in
        # merge order, so swapping the frames keeps its multiset only.
        ab, ba = MetricsFrame.merge([a, b]), MetricsFrame.merge([b, a])
        assert (ab.counters, ab.maxima) == (ba.counters, ba.maxima)
        assert {k: sorted(v) for k, v in ab.series.items()} == {
            k: sorted(v) for k, v in ba.series.items()
        }

    @given(a=frames(), b=frames(), c=frames())
    @settings(max_examples=30, deadline=None)
    def test_associative(self, a, b, c):
        left = MetricsFrame.merge([MetricsFrame.merge([a, b]), c])
        right = MetricsFrame.merge([a, MetricsFrame.merge([b, c])])
        assert left.to_dict() == right.to_dict()

    @given(a=frames())
    @settings(max_examples=20, deadline=None)
    def test_empty_frame_is_identity(self, a):
        assert MetricsFrame.merge([MetricsFrame(), a]).to_dict() == a.to_dict()
        assert MetricsFrame.merge([a, MetricsFrame()]).to_dict() == a.to_dict()

    @given(a=frames(), b=frames())
    @settings(max_examples=20, deadline=None)
    def test_merge_does_not_mutate_inputs(self, a, b):
        before_a, before_b = a.to_dict(), b.to_dict()
        MetricsFrame.merge([a, b])
        assert a.to_dict() == before_a
        assert b.to_dict() == before_b

    @given(
        values=st.lists(_LATENCIES, min_size=1, max_size=40),
        cuts=st.lists(st.integers(0, 40), max_size=4),
        q=st.sampled_from([0.5, 0.9, 0.99, 0.999, 1.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_sharded_observation_equals_serial(self, values, cuts, q):
        # Any partition of the sample stream into contiguous shards,
        # merged in stream order, gives back the serial frame exactly.
        serial = MetricsFrame()
        for value in values:
            serial.sample("lat_us", value)

        bounds = sorted({min(c, len(values)) for c in cuts} | {0, len(values)})
        shards = []
        for lo, hi in zip(bounds, bounds[1:]):
            shard = MetricsFrame()
            for value in values[lo:hi]:
                shard.sample("lat_us", value)
            shards.append(shard)
        merged = MetricsFrame.merge(shards)
        assert merged.to_dict() == serial.to_dict()
        assert merged.quantile("lat_us", q) == serial.quantile("lat_us", q)
        # Merged in any other order, the quantile still agrees exactly.
        shuffled = MetricsFrame.merge(reversed(shards))
        assert shuffled.quantile("lat_us", q) == serial.quantile("lat_us", q)


class TestReads:
    def test_counter_and_maximum_defaults(self):
        frame = MetricsFrame()
        frame.add("x.ops", 3)
        frame.peak("x.peak", 7.5)
        assert frame.counter("x.ops") == 3
        assert frame.counter("missing", default=-1) == -1
        assert frame.maximum("x.peak") == 7.5
        assert frame.maximum("missing") == 0.0

    def test_keys_normalize_on_every_surface(self):
        frame = MetricsFrame()
        frame.add("Read Ops")
        assert frame.counter("read_ops") == 1
        assert MetricsFrame(counters={"Read Ops": 2}).counter("read_ops") == 2

    def test_quantile_validates_q(self):
        frame = MetricsFrame()
        with pytest.raises(ValueError):
            frame.quantile("lat", 0.0)
        with pytest.raises(ValueError):
            frame.quantile("lat", 1.5)


class TestSerializationFrame:
    @given(a=frames())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_through_json(self, a):
        wire = json.loads(json.dumps(a.to_dict()))
        assert MetricsFrame.from_dict(wire).to_dict() == a.to_dict()

    def test_unknown_schema_version_rejected(self):
        with pytest.raises(ValueError, match="schema version"):
            MetricsFrame.from_dict({"schema_version": 99})

    def test_version_1_payload_rejected(self):
        # Version 1 carried binned histograms; its tails were bin edges.
        assert FRAME_VERSION == 2
        with pytest.raises(ValueError, match="schema version 1"):
            MetricsFrame.from_dict({"schema_version": 1, "counters": {"a": 1}})


class TestFrameSink:
    def test_event_stream_accumulates(self):
        sink = FrameSink()
        sink.on_event(FlashOpEvent("flash.nand", "program", 0, 0, nbytes=4096, cause="host"))
        sink.on_event(FlashOpEvent("flash.nand", "program", 0, 1, nbytes=4096, cause="gc"))
        sink.on_event(FlashOpEvent("flash.nand", "erase", 0, count=1, cause="wear-level"))
        sink.on_event(FlashOpEvent("flash.service", "read", 0, 0, count=3))
        sink.on_event(
            HostRequestEvent("fleet.request", "read", "complete", latency_us=120.0)
        )
        sink.on_event(HostRequestEvent("fleet.request", "read", "enqueue"))
        sink.on_event(FaultEvent("flash.nand", "program-fail", block=3))
        sink.on_event(RecoveryEvent("ftl", "page-rewrite", block=3))

        frame = sink.frame
        assert frame.counter("flash.nand.program.ops") == 2
        assert frame.counter("flash.nand.program.bytes") == 8192
        assert frame.counter("flash.nand.erase.ops") == 1
        # One key per cause, normalized like every key; an untagged op has none.
        assert frame.counter("flash.nand.program.host") == 1
        assert frame.counter("flash.nand.program.gc") == 1
        assert frame.counters["flash.nand.erase.wear_level"] == 1
        service_keys = [key for key in frame.counters if key.startswith("flash.service.")]
        assert service_keys == ["flash.service.read.ops"]
        # Only the "complete" phase counts as a served request.
        assert frame.counter("fleet.request.read.requests") == 1
        assert frame.series["fleet.request.read.latency_us"].tolist() == [120.0]
        assert frame.counter("faults.program-fail") == 1
        assert frame.counter("recovery.ftl.page-rewrite") == 1

    def test_lifecycle_splits_latency_into_queued_and_service(self):
        sink = FrameSink()
        for event in (
            HostRequestEvent("hostio.request", "write", "enqueue", request_id=7, t=100.0),
            HostRequestEvent("hostio.request", "write", "service-start", request_id=7, t=130.0),
            HostRequestEvent(
                "hostio.request", "write", "complete", request_id=7, latency_us=50.0, t=150.0
            ),
        ):
            sink.on_event(event)
        frame = sink.frame
        assert frame.counter("hostio.request.write.requests") == 1
        for phase, value in (("latency", 50.0), ("queued", 30.0), ("service", 20.0)):
            key = f"hostio.request.write.{phase}_us"
            assert frame.series[key].tolist() == [value]

    def test_a_completion_without_a_lifecycle_books_no_split(self):
        # The fleet publishes only ``complete``: latency, but no queueing.
        sink = FrameSink()
        sink.on_event(HostRequestEvent("fleet.request", "read", "complete", latency_us=9.0))
        assert sink.frame.observations("fleet.request.read.latency_us") == 1
        assert "fleet.request.read.queued_us" not in sink.frame.series

    def test_open_requests_are_keyed_by_layer_op_and_id(self):
        sink = FrameSink()
        for layer, t in (("hostio.request", 0.0), ("other.request", 5.0)):
            sink.on_event(HostRequestEvent(layer, "read", "enqueue", request_id=1, t=t))
        for layer, t in (("other.request", 45.0), ("hostio.request", 8.0)):
            sink.on_event(HostRequestEvent(layer, "read", "service-start", request_id=1, t=t))
        sink.on_event(
            HostRequestEvent(
                "hostio.request", "read", "complete", request_id=1, latency_us=12.0, t=12.0
            )
        )
        frame = sink.frame
        assert frame.series["hostio.request.read.queued_us"].tolist() == [8.0]
        assert frame.series["hostio.request.read.service_us"].tolist() == [4.0]
        assert "other.request.read.queued_us" not in frame.series

    def test_reset_forgets_open_requests(self):
        sink = FrameSink()
        sink.on_event(HostRequestEvent("hostio.request", "read", "enqueue", request_id=3, t=0.0))
        sink.reset()
        sink.on_event(
            HostRequestEvent(
                "hostio.request", "read", "complete", request_id=3, latency_us=4.0, t=4.0
            )
        )
        assert sink.frame.observations("hostio.request.read.latency_us") == 1
        assert "hostio.request.read.queued_us" not in sink.frame.series

    def test_reset_starts_a_fresh_frame(self):
        sink = FrameSink()
        sink.on_event(FlashOpEvent("flash.nand", "program", 0, 0))
        old = sink.frame
        sink.reset()
        assert sink.frame is not old
        assert sink.frame.counter("flash.nand.program.ops") == 0


class TestOpCounter:
    def test_notes_accumulate(self):
        c = OpCounter()
        c.note("read", "host")
        c.note("program", "host")
        c.note("program", "translation-writeback")
        c.note("erase", "gc")
        c.note("copy", "gc")
        assert [c.count(op) for op in ("read", "program", "erase", "copy")] == [1, 2, 1, 1]
        assert c.count("program", "host") == c.count("program", "translation-writeback") == 1
        assert c.count("program", "host", "translation-writeback", "gc") == 2
        assert c.programmed_pages() == 3

    def test_a_copy_is_a_programmed_page(self):
        c = OpCounter()
        c.note("copy", "gc", count=2)
        counts = (c.count("copy"), c.programmed_pages(), c.count("program"))
        assert counts == (2, 2, 0)

    def test_the_cause_set_is_closed(self):
        c = OpCounter()
        with pytest.raises(KeyError):
            c.note("program", "user")
        with pytest.raises(KeyError):
            c.count("program", "cleaning")
        assert c == OpCounter()

    def test_write_amplification_counts_every_cause_per_host_program(self):
        c = OpCounter()
        assert c.write_amplification() == 1.0  # nothing to divide by
        c.note("program", "host", count=4)
        before = c.snapshot()
        c.note("program", "host", count=2)
        c.note("copy", "gc", count=3)
        c.note("program", "translation-writeback")
        c.note("read", "translation-fetch")  # reads and erases write nothing
        c.note("erase", "gc")
        assert c.write_amplification() == (6 + 3 + 1) / 6
        assert c.write_amplification(metadata_pages=2) == (6 + 3 + 1 + 2) / 6
        assert c.write_amplification(since=before) == (2 + 3 + 1) / 2
        assert before.count("program") == 4  # a snapshot does not move


class TestSeries:
    def test_empty_series_reads_zero(self):
        frame = MetricsFrame()
        assert frame.observations("lat_us") == 0
        assert frame.mean("lat_us") == 0.0
        assert frame.quantile("lat_us", 0.99) == 0.0
        assert frame.to_dict()["series"] == {}

    def test_exact_percentiles(self):
        frame = MetricsFrame()
        for value in range(1, 101):
            frame.sample("lat_us", float(value))
        assert frame.observations("lat_us") == 100
        assert frame.mean("lat_us") == pytest.approx(50.5)
        assert frame.quantile("lat_us", 0.5) == pytest.approx(50.5)
        assert frame.quantile("lat_us", 1.0) == 100.0

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            MetricsFrame().sample("lat_us", -1.0)

    def test_extend_books_what_a_sample_loop_books(self):
        rng = np.random.default_rng(9)
        spans = [rng.exponential(300.0, size=n).tolist() for n in (5, 0, 1, 40)]
        spans[2].append(0.0)
        looped, extended = MetricsFrame(), MetricsFrame()
        for frame in (looped, extended):
            frame.sample("Read US", 1.5)  # an existing series, under another spelling
        for i, span in enumerate(spans):
            for key in ("read_us", f"span{i}_us"):
                for value in span:
                    looped.sample(key, value)
                extended.extend(key, span)
        assert json.dumps(extended.to_dict()) == json.dumps(looped.to_dict())
        assert "span1_us" not in extended.series

    def test_extend_of_nothing_creates_no_series(self):
        frame = MetricsFrame()
        frame.extend("lat_us", [])
        assert frame.series == {} and frame.to_dict() == MetricsFrame().to_dict()

    def test_extend_with_a_negative_sample_books_none(self):
        frame = MetricsFrame(series={"lat_us": [2.0]})
        before = json.dumps(frame.to_dict())
        for values in ([-1.0], [3.0, 4.0, -0.5, 6.0], [math.nan, 1.0, -2.0]):
            with pytest.raises(ValueError, match="negative sample"):
                frame.extend("lat_us", values)
            with pytest.raises(ValueError, match="negative sample"):
                frame.extend("new_us", values)
        assert json.dumps(frame.to_dict()) == before

    def test_quantile_is_np_percentile_on_the_percent_scale(self):
        # np.quantile(x, 0.999) and np.percentile(x, 99.9) round apart on
        # most arrays; experiments report p99.9 unrounded, so the series
        # must answer exactly as np.percentile does.
        rng = np.random.default_rng(4)
        for _ in range(20):
            values = rng.exponential(300.0, size=int(rng.integers(10, 3000))).tolist()
            frame = MetricsFrame(series={"lat_us": values})
            for q in (0.5, 0.9, 0.95, 0.99, 0.999):
                assert frame.quantile("lat_us", q) == float(np.percentile(values, q * 100))

    def test_mean_is_a_left_to_right_running_sum(self):
        # Experiments report means unrounded: compensated (math.fsum, and
        # sum() from Python 3.12 on) or pairwise (np.mean) summation would
        # move these digits.
        values = [1e16, 1.0, 1.0, 3.0, 0.1, 0.2, 0.3]
        frame = MetricsFrame()
        total = 0.0
        for value in values:
            frame.sample("lat_us", value)
            total += value
        assert frame.mean("lat_us") == total / len(values)
        assert frame.mean("lat_us") != math.fsum(values) / len(values)

    def test_merge_concatenates_in_order(self):
        a = MetricsFrame(series={"lat_us": [3.0, 1.0]})
        b = MetricsFrame(series={"lat_us": [2.0], "other_us": [5.0]})
        merged = MetricsFrame.merge([a, b])
        assert merged.to_dict()["series"] == {"lat_us": [3.0, 1.0, 2.0], "other_us": [5.0]}
        assert a.series["lat_us"].tolist() == [3.0, 1.0]

    def test_series_are_float_arrays(self):
        # Not lists: a fleet sweep point ships ~10k samples between processes.
        frame = MetricsFrame(series={"lat_us": [1, 2.5]})
        frame.sample("new_us", 4)
        for values in (*frame.series.values(), *MetricsFrame.merge([frame]).series.values()):
            assert isinstance(values, array) and values.typecode == "d"

    def test_round_trip_through_json(self):
        frame = MetricsFrame()
        frame.add("x.ops", 2)
        frame.sample("Lat US", 12.5)
        frame.sample("lat_us", 7.0)
        wire = json.loads(json.dumps(frame.to_dict()))
        assert wire["series"] == {"lat_us": [12.5, 7.0]}
        assert MetricsFrame.from_dict(wire).to_dict() == frame.to_dict()
