"""E3: Mean read latency and throughput, conventional vs ZNS (§2.4).

"Western Digital reports 60% lower average read latency and 3x higher
throughput in benchmarks."

The comparison is the paper's thesis in miniature: the *same update
stream*, stored the way each interface makes natural. On the conventional
SSD the application overwrites logical blocks in place and the FTL
garbage-collects inside the device. On ZNS the application is ported to
the zoned interface: it appends to zones and recycles the oldest zone
wholesale once its contents are superseded (log/stream semantics -- RIPQ,
ZenFS, and SALSA all work this way), so reclaim is resets only.

Methodology mirrors vendor benchmarking: **write throughput** is measured
at saturation (closed-loop writers, no reads); **read latency** is
measured with both devices offered the *same* moderate write rate (a rate
the conventional device can sustain) plus an identical open-loop read
stream. Comparing latency at saturation instead would just measure queue
explosion on whichever device is slower.
"""

from __future__ import annotations

from repro.block.factory import DeviceSpec, build_core
from repro.experiments.base import ExperimentConfig, ExperimentResult, experiment
from repro.flash.state import replay_copy
from repro.ftl.device import TimedConventionalSSD
from repro.sim.engine import Engine, Timeout
from repro.sim.rng import make_rng
from repro.workloads.synthetic import fill_then_churn, uniform_array
from repro.zns.device import TimedZNSDevice
from repro.zns.zone import ZoneState

_WRITERS = 8


def _conventional_core(op_ratio: float):
    """A prefilled, pre-churned conventional FTL.

    Pre-churning (untimed random overwrites after the fill) parks the
    free pool at the GC watermark, so the timed phase starts in the
    steady GC regime a deployed drive lives in.
    """
    spec = DeviceSpec(kind="conventional-timed", geometry="small", ftl={"op_ratio": op_ratio})
    ftl = build_core(spec)
    fill_then_churn(ftl, uniform_array(ftl.logical_pages, ftl.logical_pages // 2, seed=5))
    return ftl


def _zns_core():
    return build_core(DeviceSpec(kind="zns-timed", geometry="small"))


class _ConvRig:
    """A timed conventional SSD over a copy of a warmed FTL, with submission hooks."""

    def __init__(self, ftl):
        self.engine = Engine()
        self.ssd = TimedConventionalSSD(self.engine, replay_copy(ftl))
        self.page_size = ftl.geometry.page_size
        self.n = ftl.logical_pages
        self.rng = make_rng(1234)

    def submit_write(self):
        return self.ssd.submit_write(int(self.rng.integers(0, self.n)))

    def submit_read(self, rng):
        return self.ssd.submit_read(int(rng.integers(0, self.n)))

    @property
    def frame(self):
        return self.ssd.frame


class _ZnsRig:
    """Zone-native log writer over a copy of a ZNS device: per-stream
    zones, reset-on-wrap."""

    def __init__(self, device):
        self.engine = Engine()
        self.page_size = device.page_size
        self.device = TimedZNSDevice(self.engine, replay_copy(device))
        self.zone_count = device.zone_count
        self._cursors = {}
        zones_per_writer = self.zone_count // _WRITERS
        self._slices = {
            i: list(range(i * zones_per_writer, (i + 1) * zones_per_writer))
            for i in range(_WRITERS)
        }
        self._next_writer = 0
        self.rng = make_rng(1234)

    def submit_write(self):
        writer = self._next_writer
        self._next_writer = (self._next_writer + 1) % _WRITERS
        return self.engine.process(self._write_proc(writer))

    def _write_proc(self, writer):
        zones = self._slices[writer]
        cursor = self._cursors.get(writer, 0)
        zone = zones[cursor % len(zones)]
        if self.device.device.zone(zone).state is ZoneState.FULL:
            yield self.device.submit_reset(zone)
        latency = yield self.device.submit_append(zone)
        if self.device.device.zone(zone).state is ZoneState.FULL:
            self._cursors[writer] = cursor + 1
        return latency

    def submit_read(self, rng):
        zones = [z for z in self.device.device.report_zones() if z.wp > 0]
        if not zones:
            return self.engine.process(self._noop())
        zone = zones[int(rng.integers(0, len(zones)))]
        offset = int(rng.integers(0, zone.wp))
        return self.device.submit_read(zone.zone_id, offset)

    def _noop(self):
        yield Timeout(self.engine, 0.0)

    @property
    def frame(self):
        return self.device.frame


def _saturation_mb_s(rig, total_writes: int) -> float:
    per_writer = total_writes // _WRITERS

    def writer(engine):
        for _ in range(per_writer):
            yield rig.submit_write()

    done = rig.engine.all_of([rig.engine.process(writer(rig.engine)) for _ in range(_WRITERS)])
    rig.engine.run(until=done)
    issued = per_writer * _WRITERS
    return issued * rig.page_size / (1024 * 1024) / (rig.engine.now / 1e6)


def _read_latency_at_rate(rig, write_rate_mb_s: float, reads: int, seed: int) -> dict:
    """Open-loop writes at a fixed rate + open-loop reads.

    Returns mean/p99/p99.9 read latency in microseconds.
    """
    interarrival_us = 4096 / (write_rate_mb_s * 1024 * 1024) * 1e6
    rng_r = make_rng(seed)
    stop = [False]

    def writer(engine):
        rng = make_rng(seed + 7)
        while not stop[0]:
            yield Timeout(engine, float(rng.exponential(interarrival_us)))
            rig.submit_write()  # open loop: do not wait for completion

    def reader(engine):
        for _ in range(reads):
            yield Timeout(engine, float(rng_r.exponential(200.0)))
            yield rig.submit_read(rng_r)
        stop[0] = True

    rig.engine.process(writer(rig.engine))
    done = rig.engine.process(reader(rig.engine))
    rig.engine.run(until=done)
    key = "hostio.request.read.latency_us"
    return {
        "mean": rig.frame.mean(key),
        "p99": rig.frame.quantile(key, 0.99),
        "p999": rig.frame.quantile(key, 0.999),
    }


@experiment("E3")
def run(config: ExperimentConfig) -> ExperimentResult:
    quick = config.quick
    seed = config.seed
    writes = 2000 if quick else 4800
    reads = 1200 if quick else 3000

    # Each arm's core is warmed once; its saturation and latency runs
    # each time a copy of it.
    arms = [
        ("conventional/op=7%", _ConvRig, _conventional_core(0.07)),
        ("conventional/op=28%", _ConvRig, _conventional_core(0.28)),
        ("zns/zone-native", _ZnsRig, _zns_core()),
    ]
    rows = []
    saturation = {}
    for label, rig, core in arms:
        tp = _saturation_mb_s(rig(core), writes)
        saturation[label] = tp
        rows.append({"stack": label, "write_mb_s_saturated": round(tp, 2)})

    # Latency is compared near the weakest device's capacity: that is
    # where GC interference lives (far below it, every device looks idle).
    common_rate = 0.85 * min(saturation.values())
    for row, (_, rig, core) in zip(rows, arms):
        lat = _read_latency_at_rate(rig(core), common_rate, reads, seed)
        row["mean_read_us"] = round(lat["mean"], 1)
        row["p99_read_us"] = round(lat["p99"], 1)
        row["p999_read_us"] = round(lat["p999"], 1)

    conv7, conv28, zns = rows
    return ExperimentResult(
        experiment_id="E3",
        title="Same update stream: block encoding vs zone-native port",
        paper_claim="ZNS: ~60% lower average read latency, ~3x higher throughput (WD)",
        rows=rows,
        headline={
            "read_latency_reduction_vs_7pct_op": round(
                (1 - zns["mean_read_us"] / conv7["mean_read_us"]) * 100, 1
            ),
            "read_latency_reduction_vs_28pct_op": round(
                (1 - zns["mean_read_us"] / conv28["mean_read_us"]) * 100, 1
            ),
            "throughput_factor_vs_28pct_op": round(
                saturation["zns/zone-native"] / saturation["conventional/op=28%"], 2
            ),
            "throughput_factor_vs_7pct_op": round(
                saturation["zns/zone-native"] / saturation["conventional/op=7%"], 2
            ),
        },
        notes=(
            "Throughput at saturation; read latency at a common offered "
            "write load both devices sustain. The zone-native port never "
            "relocates data (resets only), so its advantage grows as the "
            "conventional device's OP shrinks -- buying back the gap costs "
            "28% spare flash (see E6)."
        ),
    )


__all__ = ["run"]
