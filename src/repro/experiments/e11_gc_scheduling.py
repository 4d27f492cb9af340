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

from repro.block.factory import DeviceSpec, build_stack
from repro.experiments.base import ExperimentConfig, ExperimentResult, SweepSpec, experiment
from repro.hostio.scheduler import make_scheduler
from repro.sim.engine import Engine, Timeout
from repro.sim.rng import make_rng


def measure_scheduler(name: str, quick: bool, seed: int, **scheduler_kwargs) -> dict:
    engine = Engine()
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
        extra={"prioritize_reads": False},  # isolate the scheduling effect
    )
    # The scheduler is a live collaborator, so it rides as a runtime arg.
    host = build_stack(
        spec, engine=engine, scheduler=make_scheduler(name, **scheduler_kwargs)
    )
    n = host.layer.logical_pages
    for lpn in range(n):
        host.layer.write(lpn)
    churn = make_rng(seed + 2)
    for _ in range(n // 2):  # park the stack at its reclaim watermark
        host.layer.write(int(churn.integers(0, n)))

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


def sweep_points(config: ExperimentConfig) -> list[dict]:
    """One independent work unit per reclaim scheduler."""
    return [
        {"name": "always-on", "quick": config.quick, "seed": config.seed},
        {
            "name": "rate-limited",
            "quick": config.quick,
            "seed": config.seed,
            "min_interval_us": 3000.0,
            "urgent_free_zones": 2,
        },
        {
            "name": "idle-window",
            "quick": config.quick,
            "seed": config.seed,
            "idle_threshold_us": 500.0,
            "urgent_free_zones": 2,
        },
    ]


def combine(config: ExperimentConfig, rows: list[dict]) -> ExperimentResult:
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


SWEEP = SweepSpec(points=sweep_points, point=measure_scheduler, combine=combine)


@experiment("E11")
def run(config: ExperimentConfig) -> ExperimentResult:
    return SWEEP.run(config)


__all__ = ["SWEEP", "measure_scheduler", "run"]
