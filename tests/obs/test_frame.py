"""Tests for MetricsFrame: exact merge algebra, quantiles, series, the sink.

The load-bearing property is that ``merge`` is exactly associative and
commutative -- integer sums, order-free maxima, element-wise histogram
adds -- so sharded telemetry reassembles byte-identical to a serial run
no matter how observations were partitioned. Hypothesis drives random
frames and random partitions at that claim. Series keep exact samples:
their quantiles and means must round exactly as the experiments' golden
numbers were computed.
"""

import json
import math

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
    LATENCY_BIN_EDGES_US,
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
        frame.observe(key, value)
    return frame


class TestMergeAlgebra:
    @given(a=frames(), b=frames())
    @settings(max_examples=30, deadline=None)
    def test_commutative(self, a, b):
        assert a.merged(b).to_dict() == b.merged(a).to_dict()

    @given(a=frames(), b=frames(), c=frames())
    @settings(max_examples=30, deadline=None)
    def test_associative(self, a, b, c):
        left = a.merged(b).merged(c)
        right = a.merged(b.merged(c))
        assert left.to_dict() == right.to_dict()

    @given(a=frames())
    @settings(max_examples=20, deadline=None)
    def test_empty_frame_is_identity(self, a):
        assert MetricsFrame().merged(a).to_dict() == a.to_dict()
        assert a.merged(MetricsFrame()).to_dict() == a.to_dict()

    @given(a=frames(), b=frames())
    @settings(max_examples=20, deadline=None)
    def test_merge_does_not_mutate_inputs(self, a, b):
        before_a, before_b = a.to_dict(), b.to_dict()
        a.merged(b)
        assert a.to_dict() == before_a
        assert b.to_dict() == before_b

    @given(
        values=st.lists(_LATENCIES, min_size=1, max_size=40),
        cuts=st.lists(st.integers(0, 40), max_size=4),
        q=st.sampled_from([0.5, 0.9, 0.99, 0.999, 1.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_sharded_observation_equals_serial(self, values, cuts, q):
        # Any partition of the observation stream merges back to the
        # serial frame -- bins are integers, so equality is exact.
        serial = MetricsFrame()
        for value in values:
            serial.observe("lat_us", value)

        bounds = sorted({min(c, len(values)) for c in cuts} | {0, len(values)})
        shards = []
        for lo, hi in zip(bounds, bounds[1:]):
            shard = MetricsFrame()
            for value in values[lo:hi]:
                shard.observe("lat_us", value)
            shards.append(shard)
        merged = MetricsFrame.merge(shards)
        assert merged.to_dict() == serial.to_dict()
        assert merged.quantile("lat_us", q) == serial.quantile("lat_us", q)


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

    def test_quantile_is_a_bin_upper_edge_covering_the_value(self):
        frame = MetricsFrame()
        for value in (10.0, 20.0, 30.0, 1000.0):
            frame.observe("lat", value)
        p50 = frame.quantile("lat", 0.5)
        assert p50 in LATENCY_BIN_EDGES_US
        assert p50 >= 20.0
        assert frame.quantile("lat", 1.0) >= 1000.0
        assert frame.observations("lat") == 4

    def test_quantile_validates_q(self):
        frame = MetricsFrame()
        with pytest.raises(ValueError):
            frame.quantile("lat", 0.0)
        with pytest.raises(ValueError):
            frame.quantile("lat", 1.5)

    def test_quantile_of_missing_histogram_is_zero(self):
        assert MetricsFrame().quantile("lat", 0.99) == 0.0

    def test_overflow_lands_in_the_last_bin(self):
        frame = MetricsFrame()
        frame.observe("lat", 10 * LATENCY_BIN_EDGES_US[-1])
        assert frame.quantile("lat", 1.0) == LATENCY_BIN_EDGES_US[-1]


class TestSerializationFrame:
    @given(a=frames())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_through_json(self, a):
        wire = json.loads(json.dumps(a.to_dict()))
        assert MetricsFrame.from_dict(wire).to_dict() == a.to_dict()

    def test_unknown_schema_version_rejected(self):
        with pytest.raises(ValueError, match="schema version"):
            MetricsFrame.from_dict({"schema_version": 99})

    def test_wrong_bin_count_rejected(self):
        with pytest.raises(ValueError, match="bins"):
            MetricsFrame(hists={"lat": [0, 1, 2]})


class TestFrameSink:
    def test_event_stream_accumulates(self):
        sink = FrameSink()
        sink.on_event(FlashOpEvent("flash.nand", "program", 0, 0, nbytes=4096))
        sink.on_event(FlashOpEvent("flash.nand", "program", 0, 1, nbytes=4096))
        sink.on_event(FlashOpEvent("flash.nand", "erase", 0, count=1))
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
        # Only the "complete" phase counts as a served request.
        assert frame.counter("fleet.request.read.requests") == 1
        assert frame.observations("fleet.request.read.latency_us") == 1
        assert frame.quantile("fleet.request.read.latency_us", 1.0) >= 120.0
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
            assert frame.observations(key) == 1
            assert frame.quantile(key, 1.0) == min(e for e in LATENCY_BIN_EDGES_US if e >= value)

    def test_a_completion_without_a_lifecycle_books_no_split(self):
        # The fleet publishes only ``complete``: latency, but no queueing.
        sink = FrameSink()
        sink.on_event(HostRequestEvent("fleet.request", "read", "complete", latency_us=9.0))
        assert sink.frame.observations("fleet.request.read.latency_us") == 1
        assert "fleet.request.read.queued_us" not in sink.frame.hists

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
        # 8 and 4 us are bin edges, so each quantile reads back exactly.
        assert frame.quantile("hostio.request.read.queued_us", 1.0) == 8.0
        assert frame.quantile("hostio.request.read.service_us", 1.0) == 4.0
        assert "other.request.read.queued_us" not in frame.hists

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
        assert "hostio.request.read.queued_us" not in sink.frame.hists

    def test_reset_starts_a_fresh_frame(self):
        sink = FrameSink()
        sink.on_event(FlashOpEvent("flash.nand", "program", 0, 0))
        old = sink.frame
        sink.reset()
        assert sink.frame is not old
        assert sink.frame.counter("flash.nand.program.ops") == 0


class TestObserveMany:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_LATENCIES, max_size=80))
    def test_equals_scalar_observe_loop(self, values):
        # Sizes straddle the 32-observation threshold where observe_many
        # switches from the bisect loop to searchsorted+bincount; both
        # sides must bin exactly like per-value observe().
        batched = MetricsFrame()
        batched.observe_many("lat_us", values)
        scalar = MetricsFrame()
        for value in values:
            scalar.observe("lat_us", value)
        assert batched.to_dict() == scalar.to_dict()

    @settings(max_examples=20, deadline=None)
    @given(st.lists(_LATENCIES, min_size=1, max_size=80))
    def test_accepts_lists_and_arrays_identically(self, values):
        from_list = MetricsFrame()
        from_list.observe_many("lat_us", values)
        from_array = MetricsFrame()
        from_array.observe_many("lat_us", np.asarray(values, dtype=np.float64))
        assert from_list.to_dict() == from_array.to_dict()

    def test_empty_batch_creates_no_histogram(self):
        frame = MetricsFrame()
        frame.observe_many("lat_us", [])
        assert frame.hists == {}


class TestOpCounter:
    def test_notes_accumulate(self):
        c = OpCounter()
        c.note_read(4096)
        c.note_write(4096)
        c.note_write(4096)
        c.note_erase()
        c.note_copy(4096)
        assert (c.reads, c.writes, c.erases, c.copies) == (1, 2, 1, 1)
        assert c.bytes_written == 8192
        assert c.bytes_copied == 4096

    def test_a_programming_copy_also_books_written_bytes(self):
        c = OpCounter()
        c.note_copy(4096, count=2, programs=True)
        assert (c.copies, c.bytes_copied, c.bytes_written, c.writes) == (2, 4096, 4096, 0)


class TestSeries:
    def test_empty_series_reads_zero(self):
        frame = MetricsFrame()
        assert frame.observations("lat_us") == 0
        assert frame.mean("lat_us") == 0.0
        assert frame.quantile("lat_us", 0.99) == 0.0
        assert "series" not in frame.to_dict()

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

    def test_series_and_histograms_are_separate_namespaces(self):
        frame = MetricsFrame()
        frame.observe("binned_us", 3.0)
        frame.sample("exact_us", 3.0)
        assert frame.quantile("exact_us", 1.0) == 3.0
        assert frame.quantile("binned_us", 1.0) == min(e for e in LATENCY_BIN_EDGES_US if e >= 3.0)
        assert frame.observations("exact_us") == frame.observations("binned_us") == 1
        assert list(frame.hists) == ["binned_us"]
        assert list(frame.series) == ["exact_us"]

    def test_merge_concatenates_in_order(self):
        a = MetricsFrame(series={"lat_us": [3.0, 1.0]})
        b = MetricsFrame(series={"lat_us": [2.0], "other_us": [5.0]})
        merged = MetricsFrame.merge([a, b])
        assert merged.series == {"lat_us": [3.0, 1.0, 2.0], "other_us": [5.0]}
        assert a.series == {"lat_us": [3.0, 1.0]}

    def test_round_trip_through_json(self):
        frame = MetricsFrame()
        frame.add("x.ops", 2)
        frame.sample("Lat US", 12.5)
        frame.sample("lat_us", 7.0)
        wire = json.loads(json.dumps(frame.to_dict()))
        assert wire["series"] == {"lat_us": [12.5, 7.0]}
        assert MetricsFrame.from_dict(wire).to_dict() == frame.to_dict()
