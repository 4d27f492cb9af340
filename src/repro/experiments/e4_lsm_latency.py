"""E4: LSM read tail latency and write throughput on each stack (§2.4).

"Western Digital also reports 2-4x lower read tail latency and 2x higher
write throughput for RocksDB over ZNS."

Method: run the LSM store untimed to capture its device-level I/O plan
(flush/compaction bursts with sizes and pacing), then replay that plan in
the DES against both timed stacks while a foreground reader issues point
reads. On the conventional SSD the background bursts go through the
page-mapped FTL whose GC contends with the reads; on ZNS the bursts are
zone appends and file deletions become resets, so reads only ever contend
with useful writes.
"""

from __future__ import annotations

from repro.apps.lsm import BlockFileBackend, LSMConfig, LSMStore, put_uniform
from repro.block.factory import DeviceSpec, build_stack
from repro.block.ramdisk import RamDisk
from repro.experiments.base import ExperimentConfig, ExperimentResult, experiment
from repro.sim.engine import Engine, Timeout
from repro.sim.rng import make_rng
from repro.workloads.synthetic import fill_then_churn
from repro.zns.zone import ZoneState


def capture_io_plan(quick: bool, seed: int) -> list:
    """Run the LSM untimed (on a RAM disk) to get its write/delete plan."""
    n_keys = 60_000 if quick else 90_000
    ops = 150_000 if quick else 250_000
    backend = BlockFileBackend(RamDisk(num_blocks=1 << 16), trim_on_delete=True)
    store = LSMStore(backend, LSMConfig(memtable_pages=64, level0_pages=768, max_table_pages=32))
    put_uniform(store, list(range(n_keys)), ops, make_rng(seed))
    return store.stats.io_plan


def _replay_conventional(plan, reads, read_interval_us, seed):
    engine = Engine()
    # 28% OP: the conventional drive in WD's published RocksDB comparison
    # was the generously-overprovisioned variant.
    ssd = build_stack(
        DeviceSpec(kind="conventional-timed", geometry="small", ftl={"op_ratio": 0.28}),
        engine=engine,
    )
    n = ssd.ftl.logical_pages
    fill_then_churn(ssd.ftl)  # precondition: device fully mapped
    rng = make_rng(seed)

    def writer(engine, entries):
        # Each flush/compaction output is a sequential extent placed at an
        # allocator-chosen location: sequential within the file, scattered
        # across the LBA space between files (an aged filesystem). This is
        # what fragments death order at the FTL. Four concurrent writers
        # model RocksDB's parallel background jobs.
        for entry in entries:
            start = int(rng.integers(0, n))
            for i in range(entry.written_pages):
                yield ssd.submit_write((start + i) % n)

    done = [False]

    def reader(engine):
        # Runs for the whole replay so tails sample steady-state GC, not
        # just the quiet opening phase.
        rng_r = make_rng(seed + 1)
        while not done[0]:
            yield Timeout(engine, float(rng_r.exponential(read_interval_us)))
            yield ssd.submit_read(int(rng_r.integers(0, n)))

    w = engine.all_of(
        [engine.process(writer(engine, plan[i::4])) for i in range(4)]
    )
    engine.process(reader(engine))
    engine.run(until=w)
    done[0] = True
    write_elapsed_s = engine.now / 1e6
    pages = sum(e.written_pages for e in plan)
    return {
        "stack": "conventional",
        "p99_read_us": ssd.frame.quantile("hostio.request.read.latency_us", 0.99),
        "p999_read_us": ssd.frame.quantile("hostio.request.read.latency_us", 0.999),
        "write_mb_s": pages * 4096 / (1024 * 1024) / write_elapsed_s,
    }


def _replay_zns(plan, reads, read_interval_us, seed):
    engine = Engine()
    # Reads overtake queued resets: ZenFS performs resets lazily off the
    # critical path -- the host-side scheduling freedom §4.1 describes.
    device = build_stack(
        DeviceSpec(kind="zns-timed", geometry="small", extra={"prioritize_reads": True}),
        engine=engine,
    )
    zone_count = device.device.zone_count
    pages_per_zone = device.device.geometry.pages_per_zone

    done = [False]

    def writer(engine, entries, stream):
        """Appends fill this stream's zone slice; file deletions free old
        zones (FIFO resets, issued lazily without blocking writes). Four
        streams model RocksDB's parallel background jobs over ZenFS."""
        slice_size = zone_count // 4
        my_zones = list(range(stream * slice_size, (stream + 1) * slice_size))
        cursor = 0
        freed_pages = 0
        reset_cursor = 0
        for entry in entries:
            for _ in range(entry.written_pages):
                scanned = 0
                while device.device.zone(my_zones[cursor % slice_size]).state is ZoneState.FULL:
                    cursor += 1
                    scanned += 1
                    if scanned >= slice_size:
                        # Every zone in the slice is full: recycle the
                        # oldest in FIFO order (its contents are
                        # superseded log data) and write there.
                        target = my_zones[reset_cursor % slice_size]
                        reset_cursor += 1
                        yield device.submit_reset(target)
                        cursor = my_zones.index(target)
                        scanned = 0
                        break
                yield device.submit_append(my_zones[cursor % slice_size])
            freed_pages += entry.freed_pages
            while freed_pages >= pages_per_zone and reset_cursor < cursor:
                target = my_zones[reset_cursor % slice_size]
                if device.device.zone(target).state is ZoneState.FULL:
                    device.submit_reset(target)  # lazy: fire and forget
                    freed_pages -= pages_per_zone
                reset_cursor += 1

    def reader(engine):
        rng_r = make_rng(seed + 1)
        while not done[0]:
            yield Timeout(engine, float(rng_r.exponential(read_interval_us)))
            # Read a random written page from a random non-empty zone.
            candidates = [z for z in device.device.report_zones() if z.wp > 0]
            if not candidates:
                continue
            zone = candidates[int(rng_r.integers(0, len(candidates)))]
            offset = int(rng_r.integers(0, zone.wp))
            try:
                yield device.submit_read(zone.zone_id, offset)
            except Exception:
                continue  # zone reset raced the read target

    w = engine.all_of(
        [engine.process(writer(engine, plan[i::4], i)) for i in range(4)]
    )
    engine.process(reader(engine))
    engine.run(until=w)
    done[0] = True
    write_elapsed_s = engine.now / 1e6
    pages = sum(e.written_pages for e in plan)
    return {
        "stack": "zns",
        "p99_read_us": device.frame.quantile("hostio.request.read.latency_us", 0.99),
        "p999_read_us": device.frame.quantile("hostio.request.read.latency_us", 0.999),
        "write_mb_s": pages * 4096 / (1024 * 1024) / write_elapsed_s,
    }


@experiment("E4")
def run(config: ExperimentConfig) -> ExperimentResult:
    quick = config.quick
    seed = config.seed
    plan = capture_io_plan(quick, seed)
    reads = 1200 if quick else 3000
    conv = _replay_conventional(plan, reads, 500.0, seed)
    zns = _replay_zns(plan, reads, 500.0, seed)
    return ExperimentResult(
        experiment_id="E4",
        title="LSM I/O plan replay: read tails and write throughput",
        paper_claim="ZNS: 2-4x lower read tail latency, 2x write throughput for RocksDB (WD)",
        rows=[conv, zns],
        headline={
            "p99_tail_factor": round(conv["p99_read_us"] / zns["p99_read_us"], 2),
            "p999_tail_factor": round(conv["p999_read_us"] / zns["p999_read_us"], 2),
            "write_throughput_factor": round(zns["write_mb_s"] / conv["write_mb_s"], 2),
        },
        notes=(
            f"I/O plan captured from a real LSM run ({len(plan)} flush/"
            "compaction steps), replayed against both timed stacks with a "
            "concurrent open-loop point-read stream."
        ),
    )


__all__ = ["capture_io_plan", "run"]
