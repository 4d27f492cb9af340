"""A3 (ablation): erase suspension vs read tail latency.

The paper's flash primer cites Wu & He (FAST'12, [54]) for erase/program
latencies; that same work introduced *erase suspension* -- pausing a
multi-millisecond block erase so a read can use the plane. This ablation
quantifies how much of the conventional SSD's read tail is pure
erase-blocking: the same GC-heavy workload, with erases monolithic vs
sliced into suspendable quanta (plus read prioritization, which suspension
requires to matter).
"""

from __future__ import annotations

from repro.block.factory import DeviceSpec, build_core
from repro.experiments.base import ExperimentConfig, ExperimentResult, experiment
from repro.flash.state import replay_copy
from repro.ftl.device import TimedConventionalSSD
from repro.sim.engine import Engine, Timeout
from repro.sim.rng import make_rng
from repro.workloads.synthetic import fill_then_churn, uniform_array


def warm_ftl(seed: int):
    """The GC-heavy (7% OP) FTL every slice count runs on, filled and churned once."""
    spec = DeviceSpec(kind="conventional-timed", geometry="small", ftl={"op_ratio": 0.07})
    ftl = build_core(spec)
    n = ftl.logical_pages
    fill_then_churn(ftl, uniform_array(n, n // 2, seed=seed + 2))
    return ftl


def measure(ftl, erase_suspend_slices: int, quick: bool, seed: int) -> dict:
    """One slice count's run on a copy of the warmed ``ftl``."""
    engine = Engine()
    ssd = TimedConventionalSSD(
        engine, replay_copy(ftl),
        prioritize_reads=True,  # suspension is pointless without priority
        erase_suspend_slices=erase_suspend_slices,
    )
    n = ftl.logical_pages

    reads = 1500 if quick else 6000
    rng_w = make_rng(seed)
    rng_r = make_rng(seed + 1)
    done = [False]

    def writer(engine):
        while not done[0]:
            yield Timeout(engine, float(rng_w.exponential(4000.0)))
            ssd.submit_write(int(rng_w.integers(0, n)))

    def reader(engine):
        for _ in range(reads):
            yield Timeout(engine, float(rng_r.exponential(200.0)))
            yield ssd.submit_read(int(rng_r.integers(0, n)))
        done[0] = True

    engine.process(writer(engine))
    r = engine.process(reader(engine))
    engine.run(until=r)
    return {
        "erase_slices": erase_suspend_slices,
        "mean_read_us": round(ssd.frame.mean("hostio.request.read.latency_us"), 1),
        "p99_read_us": round(ssd.frame.quantile("hostio.request.read.latency_us", 0.99), 1),
        "p999_read_us": round(ssd.frame.quantile("hostio.request.read.latency_us", 0.999), 1),
    }


@experiment("A3")
def run(config: ExperimentConfig) -> ExperimentResult:
    ftl = warm_ftl(config.seed)
    rows = [
        measure(ftl, slices, config.quick, config.seed)
        for slices in config.param("slices", [1, 2, 4, 8])
    ]
    monolithic = rows[0]["p999_read_us"]
    best = rows[-1]["p999_read_us"]
    return ExperimentResult(
        experiment_id="A3",
        title="Ablation: erase suspension vs read tails",
        paper_claim=(
            "Erase takes ~6x program time (§2.1 [54]); suspension bounds "
            "how long a read can be stuck behind one"
        ),
        rows=rows,
        headline={
            "p999_monolithic_us": monolithic,
            "p999_8_slices_us": best,
            "tail_reduction_factor": round(monolithic / best, 2),
        },
        notes=(
            "Reads prioritized in all rows; only erase granularity varies. "
            "The residual tail with 8 slices is queueing behind programs."
        ),
    )


__all__ = ["measure", "run", "warm_ftl"]
