"""E12: The block interface rebuilt on the host over ZNS (§2.3).

"It was straightforward to implement the block interface on the host
using ZNS SSDs. This task is aided by the simple copy command ... copying
forward valid data before erasing a zone does not use any PCIe bandwidth,
enabling performance comparable to conventional SSDs."

Three stacks serve identical random-overwrite block traffic:

- a conventional SSD (the FTL in the device);
- the host translation layer copying through the host (read+write);
- the host translation layer using device-managed simple copy.

We compare total WA (should match: it is the same algorithm at the same
spare ratio), the PCIe traffic reclaim generates, and DES throughput.
"""

from __future__ import annotations

from repro.block.factory import DeviceSpec, build_stack
from repro.experiments.base import ExperimentConfig, ExperimentResult, SweepSpec
from repro.sim.engine import Engine
from repro.sim.rng import make_rng
from repro.workloads.synthetic import fill_then_churn, uniform_array, uniform_stream

_OP = 0.11


def _wa_conventional(quick: bool, seed: int) -> dict:
    ftl = build_stack(
        DeviceSpec(kind="conventional-ftl", geometry="small", ftl={"op_ratio": _OP})
    )
    n = ftl.logical_pages
    fill_then_churn(ftl, uniform_array(n, (2 if quick else 4) * n, seed=seed))
    return {
        "stack": "conventional-ftl",
        "total_wa": round(ftl.nand.counters.write_amplification(), 2),
        "pcie_reclaim_pages": 0,  # GC never crosses the host interface
    }


def _wa_host(simple_copy: bool, quick: bool, seed: int) -> dict:
    layer = build_stack(
        DeviceSpec(
            kind="dmzoned",
            geometry="small",
            blocks_per_zone=2,
            max_active_zones=14,
            zoned_block={"op_ratio": _OP, "use_simple_copy": simple_copy},
        )
    )
    device = layer.device
    n = layer.logical_pages
    for lpn in range(n):
        layer.write(lpn, build_ops=False)
    for lpn in uniform_stream(n, (2 if quick else 4) * n, seed=seed):
        layer.write(lpn, build_ops=False)
    return {
        "stack": "zns+host-copy" if not simple_copy else "zns+simple-copy",
        "total_wa": round(device.nand.counters.write_amplification(), 2),
        "pcie_reclaim_pages": device.nand.counters.count("read", "reclaim"),
    }


def _throughput_conventional(quick: bool, seed: int) -> float:
    engine = Engine()
    ssd = build_stack(
        DeviceSpec(kind="conventional-timed", geometry="small", ftl={"op_ratio": _OP}),
        engine=engine,
    )
    n = ssd.ftl.logical_pages
    fill_then_churn(ssd.ftl)
    writes = (n // 2) if quick else 2 * n
    rng = make_rng(seed)

    def writer(engine):
        for _ in range(writes):
            yield ssd.submit_write(int(rng.integers(0, n)))

    w = engine.process(writer(engine))
    engine.run(until=w)
    return writes * ssd.ftl.geometry.page_size / (1024 * 1024) / (engine.now / 1e6)


def _throughput_host(simple_copy: bool, quick: bool, seed: int) -> float:
    engine = Engine()
    host = build_stack(
        DeviceSpec(
            kind="dmzoned-timed",
            geometry="small",
            blocks_per_zone=2,
            max_active_zones=14,
            zoned_block={"op_ratio": _OP, "use_simple_copy": simple_copy},
            extra={"prioritize_reads": False},
        ),
        engine=engine,
    )
    n = host.layer.logical_pages
    for lpn in range(n):
        host.layer.write(lpn, build_ops=False)
    writes = (n // 2) if quick else 2 * n
    rng = make_rng(seed)

    def writer(engine):
        for _ in range(writes):
            yield host.submit_write(int(rng.integers(0, n)))

    w = engine.process(writer(engine))
    engine.run(until=w)
    return writes * host.layer.block_size / (1024 * 1024) / (engine.now / 1e6)


def measure_stack(stack: str, quick: bool, seed: int) -> dict:
    """WA + DES throughput for one stack; ``stack`` names the translation."""
    if stack == "conventional-ftl":
        return {
            **_wa_conventional(quick, seed),
            "write_mb_s": round(_throughput_conventional(quick, seed), 1),
        }
    simple_copy = stack == "zns+simple-copy"
    return {
        **_wa_host(simple_copy, quick, seed),
        "write_mb_s": round(_throughput_host(simple_copy, quick, seed), 1),
    }


def sweep_points(config: ExperimentConfig) -> list[dict]:
    """One independent work unit per translation stack."""
    stacks = config.param(
        "stacks", ["conventional-ftl", "zns+host-copy", "zns+simple-copy"]
    )
    return [
        {"stack": stack, "quick": config.quick, "seed": config.seed}
        for stack in stacks
    ]


def combine(config: ExperimentConfig, rows: list[dict]) -> ExperimentResult:
    conv_tp = rows[0]["write_mb_s"]
    simple_tp = rows[2]["write_mb_s"]
    return ExperimentResult(
        experiment_id="E12",
        title="Block-on-ZNS translation vs a conventional SSD",
        paper_claim=(
            "Host block emulation over ZNS with simple copy performs "
            "comparably to conventional SSDs, with no PCIe reclaim traffic"
        ),
        rows=rows,
        headline={
            "throughput_vs_conventional": round(simple_tp / conv_tp, 2),
            "simple_copy_pcie_pages": rows[2]["pcie_reclaim_pages"],
            "host_copy_pcie_pages": rows[1]["pcie_reclaim_pages"],
        },
        notes=(
            "Same random-overwrite traffic and spare ratio everywhere; the "
            "translation algorithm is the FTL's, relocated to the host."
        ),
    )


SWEEP = SweepSpec(points=sweep_points, point=measure_stack, combine=combine)


__all__ = ["SWEEP", "measure_stack"]
