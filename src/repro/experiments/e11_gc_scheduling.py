"""E11: Scheduling reclaim around I/O (§4.1).

"Hosts explicitly reclaim space on ZNS SSDs, increasing performance
predictability and reducing read tail latency by allowing hosts to
schedule garbage collection around I/O."

The same host block-on-ZNS stack under the same workload, with only the
reclaim scheduler varying: always-on (the FTL's behaviour, space pressure
wins), rate-limited, and idle-window (reclaim waits for read-quiet
periods unless space is critical). Reads arrive in bursts with gaps, so
an idle-aware scheduler has real windows to use.
"""

from __future__ import annotations

from repro.block.factory import DeviceSpec, build_core
from repro.experiments.base import ExperimentConfig, ExperimentResult, experiment
from repro.flash.state import replay_copy
from repro.hostio.scheduler import make_scheduler
from repro.hostio.timed import TimedZonedBlockDevice
from repro.sim.engine import Engine, Timeout
from repro.sim.rng import make_rng

#: The reclaim schedulers compared, with their knobs.
SCHEDULERS = (
    ("always-on", {}),
    ("rate-limited", {"min_interval_us": 3000.0, "urgent_free_zones": 2}),
    ("idle-window", {"idle_threshold_us": 500.0, "urgent_free_zones": 2}),
)


def warm_layer(seed: int):
    """The dm-zoned layer every scheduler runs on, filled once and parked
    at its reclaim watermark."""
    spec = DeviceSpec(
        kind="dmzoned-timed",
        geometry="small",
        blocks_per_zone=2,
        max_active_zones=14,
        # A wide watermark band (reclaim wanted below 6 free zones, space
        # critical below 2) is what gives the scheduler discretion: inside
        # the band, *when* to reclaim is a free choice.
        zoned_block={
            "op_ratio": 0.18,
            "use_simple_copy": True,
            "gc_low_zones": 6,
            "gc_high_zones": 8,
        },
    )
    layer = build_core(spec)
    n = layer.logical_pages
    for lpn in range(n):
        layer.write(lpn, build_ops=False)
    churn = make_rng(seed + 2)
    for _ in range(n // 2):  # park the stack at its reclaim watermark
        layer.write(int(churn.integers(0, n)), build_ops=False)
    return layer


def measure_scheduler(layer, name: str, quick: bool, seed: int, **scheduler_kwargs) -> dict:
    """One scheduler's run on a copy of the warmed ``layer``."""
    engine = Engine()
    # Read prioritization off: isolate the scheduling effect.
    host = TimedZonedBlockDevice(
        engine, replay_copy(layer), make_scheduler(name, **scheduler_kwargs),
        prioritize_reads=False,
    )
    n = host.layer.logical_pages

    bursts = 80 if quick else 160
    rng_w = make_rng(seed)
    rng_r = make_rng(seed + 1)
    done = [False]

    def writer(engine):
        # Open-loop write load heavy enough that reclaim runs every few
        # tens of milliseconds, yet with slack about exactly when.
        while not done[0]:
            yield Timeout(engine, float(rng_w.exponential(500.0)))
            host.submit_write(int(rng_w.integers(0, n)))

    def reader(engine):
        # Bursty reads: 20 back-to-back reads, then a quiet gap.
        for _ in range(bursts):
            for _ in range(20):
                yield host.submit_read(int(rng_r.integers(0, n)))
            yield Timeout(engine, 4000.0)
        done[0] = True

    engine.process(writer(engine))
    r = engine.process(reader(engine))
    engine.run(until=r)
    return {
        "scheduler": name,
        "mean_read_us": round(host.frame.mean("hostio.request.read.latency_us"), 1),
        "p99_read_us": round(host.frame.quantile("hostio.request.read.latency_us", 0.99), 1),
        "p999_read_us": round(host.frame.quantile("hostio.request.read.latency_us", 0.999), 1),
        "write_mean_us": round(host.frame.mean("hostio.request.write.latency_us"), 1),
    }


@experiment("E11")
def run(config: ExperimentConfig) -> ExperimentResult:
    layer = warm_layer(config.seed)
    rows = [
        measure_scheduler(layer, name, config.quick, config.seed, **knobs)
        for name, knobs in SCHEDULERS
    ]
    always = rows[0]["p999_read_us"]
    best = min(rows[1:], key=lambda r: r["p999_read_us"])
    return ExperimentResult(
        experiment_id="E11",
        title="Host reclaim scheduling vs read tail latency",
        paper_claim=(
            "Host-scheduled reclaim cuts read tail latency vs FTL-style "
            "space-pressure-driven GC"
        ),
        rows=rows,
        headline={
            "p999_always_on_us": always,
            "p999_best_scheduled_us": best["p999_read_us"],
            "best_scheduler": best["scheduler"],
            "tail_reduction_factor": round(always / best["p999_read_us"], 2),
        },
        notes=(
            "Identical stack and workload; only the reclaim scheduler "
            "differs. Read prioritization is disabled so the effect is pure "
            "scheduling. Writes pay for the deferral -- the tradeoff §4.1 "
            "says hosts should get to choose."
        ),
    )


__all__ = ["SCHEDULERS", "measure_scheduler", "run", "warm_layer"]
