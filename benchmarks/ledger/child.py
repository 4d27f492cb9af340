"""One pass of one workload, in a process of its own.

``run.py`` starts this once per (workload, repeat) so that no pass inherits
another's imports, caches or heap. It prints one JSON object: the four
end-to-end measurements (times in reference seconds, see ``SpeedProbe``),
the correctness ops, result digests and, with ``--traced``, the per-layer
ledger (cProfile rows bucketed by file path, exact counts from a sink on the
telemetry bus, spans around the LSM calls).

All workloads are closed-loop with one client: the simulator is a batch
program, so the next experiment or op starts when the previous returns.
"""

from __future__ import annotations

import argparse
import array
import cProfile
import hashlib
import json
import random
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from typing import Any, Callable

import checks
import spec

GET, PUT, SCAN = range(3)
#: ``scan(lo, lo + SCAN_SPAN)``: a few SSTable pages per level touched.
SCAN_SPAN = 300

_EVENT_COUNTS = {
    "gc": "ftl.gc_events",
    "zone-transition": "zns.zone_transitions",
    "zone-append": "zns.zone_appends",
    "zone-mgmt": "zns.zone_mgmt_ops",
    "reclaim": "block.reclaim_events",
    "fault": "faults.fired",
}
_REQUEST_LAYERS = {
    "hostio.request": "hostio.requests_completed",
    "fleet.request": "fleet.requests_completed",
}


class CountingSink:
    """Exact simulated work per layer, counted on the telemetry bus.

    Keyed on the events' ``kind``/``layer`` tags (the bus's wire format),
    so it needs no import from ``repro.obs.events``.
    """

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()

    def on_event(self, event: Any) -> None:
        counts = self.counts
        counts["obs.events_published"] += 1
        kind = event.kind
        if kind == "flash-op":
            if event.layer == "flash.nand" and event.op in spec.FLASH_OP_COUNTS:
                counts[spec.FLASH_OP_COUNTS[event.op]] += event.count
        elif kind == "host-request":
            if event.phase == "complete" and event.layer in _REQUEST_LAYERS:
                counts[_REQUEST_LAYERS[event.layer]] += 1
        elif kind == "host-request-batch":
            if event.layer in _REQUEST_LAYERS:
                counts[_REQUEST_LAYERS[event.layer]] += event.count
        elif kind == "translation":
            counts["ftl.dftl.translation_pages"] += event.pages
        elif kind in _EVENT_COUNTS:
            counts[_EVENT_COUNTS[kind]] += 1


class SpeedProbe:
    """How fast this box runs *while* a pass runs, against a reference box.

    The boxes this runs on are shared: their speed moves by 20-50% for
    minutes at a time, which no regression bound survives. From the child's
    first line to the end of the timed section, a timer signal interrupts
    every ``PERIOD_S`` of wall time and times a fixed kernel (about 1.5% of
    the pass): a pure-Python arithmetic loop, then random reads over a 4 MiB
    array -- interpreter work and cache misses in roughly the mix that, over
    forty minutes of this box's moods, tracked all of the workloads best
    (arithmetic alone under-reads the bad spells). ``stop()`` gives the
    average over the pass of ``REFERENCE_KERNEL_S`` / kernel time: 1.0 on
    the reference box when it is quiet, 0.8 while it runs a fifth slower.
    ``setup_s``, ``wall_s`` and ``cpu_s`` are reported in *reference
    seconds*, measured seconds x that speed; the measured seconds stay
    beside them as ``raw_*``. Timers are not inherited by forked pool
    workers, so only this process is interrupted.
    """

    PERIOD_S = 0.05
    REFERENCE_KERNEL_S = 0.00068
    _ARITHMETIC = range(4000)
    _READS = range(2000)
    _MASK = (1 << 20) - 1

    def __init__(self) -> None:
        self.samples: list[float] = []
        # Copied from bytes so that every page is written, hence really there.
        self._array = array.array("i", bytes(4 * (self._MASK + 1)))
        self._at = 1
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def _tick(self, signum: int = 0, frame: Any = None) -> None:
        started = time.perf_counter()
        acc = 0
        for i in self._ARITHMETIC:
            acc += i * i % 7
        values, at, mask = self._array, self._at, self._MASK
        for _ in self._READS:
            at = (at * 1664525 + 1013904223) & mask  # a full-period walk: no page stays hot
            acc += values[at]
        self._at = at
        self.samples.append(time.perf_counter() - started)

    def stop(self) -> float:
        """Stop interrupting; the pass's speed relative to the reference box."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.REFERENCE_KERNEL_S * statistics.fmean(1.0 / sample for sample in self.samples)


def _usage() -> tuple[resource.struct_rusage, resource.struct_rusage]:
    return resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)


def cpu_seconds() -> float:
    """User + system time of this process and of the workers it has reaped."""
    return sum(usage.ru_utime + usage.ru_stime for usage in _usage())


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any reaped worker (Linux: KiB)."""
    return max(usage.ru_maxrss for usage in _usage()) / 1024.0


# -- The two kinds of timed section ------------------------------------------------

Timed = Callable[[], Any]
Report = Callable[[Any], dict[str, Any]]


def prepare_experiments(workload: spec.Workload, seed: int) -> tuple[Timed, Report]:
    """Configs through ``repro.exec.execute``: what ``zns-repro run`` does."""
    from repro.exec import execute
    from repro.experiments import ExperimentConfig

    configs = [
        ExperimentConfig(experiment_id, seed=seed, params=params)
        for experiment_id, params in workload.configs
    ]

    def timed() -> list:
        return execute(configs, jobs=workload.jobs, cache=None)

    def report(records: list) -> dict[str, Any]:
        ops, digests = checks.check_records(records, dict(workload.configs), seed)
        walls = {record.config.experiment_id: record.duration_s for record in records}
        return {"ops": ops, "digests": digests, "experiment_wall_s": walls}

    return timed, report


def _spanned(call: Callable, spans: Counter, name: str) -> Callable:
    """``call`` timed from outside into ``spans[name]``."""
    clock = time.perf_counter

    def wrapper(*args: Any) -> Any:
        started = clock()
        try:
            return call(*args)
        finally:
            spans[name] += clock() - started

    return wrapper


def prepare_readmix(mix: spec.OpMix, seed: int, spans: Counter | None) -> tuple[Timed, Report]:
    """The ``apps.lsm`` layer driven directly: prefill, then a read-mostly op mix.

    80% ``get`` over twice the prefilled key range (so most are absent and
    bloom probes decide), 18% ``put``, 2% short ``scan``; every op is drawn
    from the seed before the clock starts. The store sits on E5's aged block
    stack, the one ``lsm_write`` fills: ``ZoneFileBackend`` loses a table on
    about half the seeds (README, "Defect found"), and a workload may not
    have failing ops.
    """
    from repro.apps.lsm import BlockFileBackend, LSMConfig, LSMStore
    from repro.block.factory import DeviceSpec, build_stack

    rng = random.Random(seed)
    ssd = build_stack(
        DeviceSpec(kind="conventional-ssd", geometry="small", ftl={"op_ratio": 0.07})
    )
    store = LSMStore(
        BlockFileBackend(ssd, trim_on_delete=False, allocation_strategy="aged"),
        LSMConfig(memtable_pages=64, level0_pages=768, max_table_pages=32),
    )
    model = checks.DictModel()
    for value in range(mix.prefill_puts):
        key = rng.randrange(mix.keys)
        store.put(key, value)
        model.put(key, value)
    ops = []
    for _ in range(mix.ops):
        draw = rng.random()
        if draw < 0.80:
            ops.append((GET, rng.randrange(2 * mix.keys)))
        else:
            ops.append((PUT if draw < 0.98 else SCAN, rng.randrange(mix.keys)))
    before = dict(vars(store.stats))

    def timed() -> None:
        put, get, scan = store.put, store.get, store.scan
        if spans is not None:
            put = _spanned(put, spans, "apps.lsm.put_s")
            get = _spanned(get, spans, "apps.lsm.get_s")
            scan = _spanned(scan, spans, "apps.lsm.scan_s")
        value = mix.prefill_puts
        for index, (kind, key) in enumerate(ops):
            try:
                if kind == GET:
                    model.check_get(key, get(key))
                elif kind == PUT:
                    put(key, value)
                    model.put(key, value)
                    value += 1
                else:
                    model.check_scan(key, key + SCAN_SPAN, scan(key, key + SCAN_SPAN))
            except Exception as exc:  # a raising op is a failed op, not a crash
                model.attempted += 1
                model.fail(f"op {index} raised {exc!r}")

    def report(_: None) -> dict[str, Any]:
        after = {k: v for k, v in vars(store.stats).items() if isinstance(v, int)}
        state = json.dumps([after, store.level_sizes_pages()], sort_keys=True)
        delta = {name: after[name] - before[name] for name in after}
        probes = delta["bloom_skips"] + delta["table_reads"]
        layers = {
            f"apps.lsm.{name}": delta[name]
            for name in ("flushes", "compactions", "compaction_pages", "bloom_skips", "table_reads")
        }
        layers["apps.lsm.bloom_skip_ratio"] = delta["bloom_skips"] / probes if probes else 0.0
        return {
            "model": {
                "attempted": model.attempted,
                "failed": model.failed,
                "first_failure": model.first_failure,
            },
            "digests": {"lsm_readmix": hashlib.sha256(state.encode()).hexdigest()},
            "layers": layers,
        }

    return timed, report


def bucket_profile(profiler: cProfile.Profile) -> dict[str, float]:
    """``<bucket>.self_s`` (sum of tottime) and ``<bucket>.calls`` per layer."""
    layers: Counter[str] = Counter()
    for entry in profiler.getstats():
        bucket = spec.bucket_of(entry.code)
        layers[f"{bucket}.self_s"] += entry.inlinetime
        layers[f"{bucket}.calls"] += entry.callcount
    return dict(layers)


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--shrunk", action="store_true")
    args = parser.parse_args(argv)
    workload = (spec.SHRUNK_WORKLOADS if args.shrunk else spec.WORKLOADS)[args.workload]
    sys.path.insert(0, str(spec.SRC))

    sink = profiler = spans = probe = None
    if args.traced:
        from repro.obs.runtime import install_global_sink, remove_global_sink

        # Installed before any stack is built: tracers pick up global sinks
        # at construction.
        sink = install_global_sink(CountingSink())
        profiler = cProfile.Profile()
        spans = Counter()
    else:
        probe = SpeedProbe()  # a traced pass reports measured seconds only
    if workload.mix is not None:
        timed, report = prepare_readmix(workload.mix, args.seed, spans)
    else:
        timed, report = prepare_experiments(workload, args.seed)
    raw_setup_s = time.perf_counter() - started
    if args.setup_only:
        print(json.dumps({"setup_s": raw_setup_s * probe.stop()}))
        return 0

    if sink is not None:
        sink.counts.clear()  # set-up's events are not the workload's
    cpu_before = cpu_seconds()
    wall_before = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    outcome = timed()
    if profiler is not None:
        profiler.disable()
    raw_wall_s = time.perf_counter() - wall_before
    raw_cpu_s = cpu_seconds() - cpu_before
    speed = probe.stop() if probe is not None else 1.0
    result = {
        "setup_s": raw_setup_s * speed,
        "wall_s": raw_wall_s * speed,
        "cpu_s": raw_cpu_s * speed,
        "peak_rss_mb": peak_rss_mb(),
        "raw_wall_s": raw_wall_s,
        "raw_cpu_s": raw_cpu_s,
        "box_speed": speed,
        "ops": {},
        "model": {"attempted": 0, "failed": 0, "first_failure": None},
        "experiment_wall_s": {},
        "layers": {},
    }
    result.update(report(outcome))
    if args.traced:
        remove_global_sink(sink)
        result["layers"] = {
            **result["layers"], **bucket_profile(profiler), **sink.counts, **spans
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
