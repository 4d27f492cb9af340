"""The ``zns-repro`` command-line entry point.

Usage::

    zns-repro list                         # show the experiment index
    zns-repro run E1 [--full]              # run one experiment
    zns-repro run E1,E5,A2 --jobs 4        # a subset, fanned out
    zns-repro run all --jobs 4             # everything, in index order
    zns-repro run all --json --out r.json  # machine-readable results
    zns-repro chart E1                     # run and draw a figure

Runs are served from a content-addressed cache (config hash + code
version) under ``~/.cache/zns-repro`` unless ``--no-cache``; point
``--cache-dir`` (or ``$ZNS_REPRO_CACHE_DIR``) elsewhere. Progress lines
go to stderr so stdout stays parseable under ``--json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.experiments.base import SCHEMA_VERSION, ExperimentConfig
from repro.experiments.runner import (
    DEFAULT_IDS,
    MODULES,
    UnknownExperimentError,
    resolve_id,
    run_config,
)

_DESCRIPTIONS = {
    "T1": "Table 1: survey taxonomy counts per venue",
    "E1": "WA vs overprovisioning (random writes)",
    "E2": "Mapping-table DRAM: conventional vs ZNS",
    "E3": "Mixed-workload read latency and throughput",
    "E4": "LSM replay: read tails and write throughput",
    "E5": "LSM write amplification per backend",
    "E6": "$/usable-GB and the small-DIMM premium",
    "E7": "Write-pointer contention vs zone append",
    "E8": "Active-zone budgets under bursty tenants",
    "E9": "Lifetime-hint placement ladder",
    "E10": "NAND timing ladder; erase/program ratio",
    "E11": "Host reclaim scheduling vs read tails",
    "E12": "Block-on-ZNS translation vs conventional SSD",
    "E13": "Flash cache designs per interface",
    "E14": "Device lifetime: measured WA x cell endurance",
    "E15": "Fault resilience: WA/tails under injected flash faults",
    "E16": "Fleet serving: placement x mix x burstiness at rack scale",
    "E17": "Reset pressure: zone-management cost vs the ZNS tail win",
    "A1": "Ablation: GC victim policy x workload skew",
    "A2": "Ablation: zone width vs LSM reclaim overhead",
    "A3": "Ablation: erase suspension vs read tails",
    "A4": "Ablation: DRAM-less mapping (DFTL) vs ZNS",
    "A5": "Ablation: mapping-durability checkpoint overhead",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zns-repro",
        description="Reproduction experiments for 'Don't Be a Blockhead' (HotOS '21)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiments")

    chart_parser = sub.add_parser("chart", help="run an experiment and draw its figure")
    chart_parser.add_argument("experiment", help="experiment id with a figure (E1, E7, E9, E14)")
    chart_parser.add_argument("--full", action="store_true")
    chart_parser.add_argument("--seed", type=int, default=0)

    run_parser = sub.add_parser("run", help="run experiment(s)")
    run_parser.add_argument(
        "experiment", help="experiment id (e.g. E1), comma-separated ids, or 'all'"
    )
    run_parser.add_argument(
        "--full", action="store_true", help="full-size workloads (slower, tighter numbers)"
    )
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        metavar="N",
        help="worker processes; >1 fans out experiments and sweep points",
    )
    run_parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="result cache location (default: ~/.cache/zns-repro)",
    )
    run_parser.add_argument(
        "--no-cache", action="store_true", help="neither read nor write the result cache"
    )
    run_parser.add_argument(
        "--json",
        action="store_true",
        help="emit results as a JSON array on stdout instead of text tables",
    )
    run_parser.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="also write the JSON result set to FILE",
    )
    run_parser.add_argument(
        "--format",
        choices=["text", "markdown", "csv"],
        default="text",
        help="output format for the result tables",
    )
    run_parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write the run's telemetry stream to PATH as JSON lines "
        "(one event per line; implies --no-cache, works under --jobs)",
    )
    run_parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write per-experiment latency/flash-op summaries to FILE as "
        "JSON (implies --no-cache)",
    )
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help="capture a cProfile top-30 (cumulative time) per unit of work "
        "(a whole experiment, or each sweep point) into the result "
        "metrics (implies --no-cache)",
    )
    return parser


def _resolve_ids(spec: str) -> list[str]:
    """Expand 'all' / 'E1' / 'E1,E5,A2' into canonical registry keys."""
    if spec.lower() == "all":
        return list(DEFAULT_IDS)
    return [resolve_id(part) for part in spec.split(",") if part.strip()]


def _render(result, fmt: str) -> str:
    if fmt == "markdown":
        from repro.analysis.render import to_markdown

        return to_markdown(result)
    if fmt == "csv":
        from repro.analysis.render import to_csv

        return to_csv(result).rstrip("\n")
    return result.format()


def _run_instrumented(configs, cache, args):
    """Execute ``configs`` with env-driven telemetry sinks if requested.

    The trace/metrics env vars are set before any worker is forked (pool
    workers inherit them and write per-pid part files) and restored
    afterwards; part files are merged into ``args.trace`` on the way out.
    """
    from repro.exec import ProgressReporter, execute
    from repro.obs import runtime as obs_runtime

    def run():
        return execute(
            configs,
            jobs=args.jobs,
            cache=cache,
            reporter=ProgressReporter(stream=sys.stderr),
            profile=args.profile,
        )

    if not (args.trace or args.metrics_out):
        return run()

    saved: dict[str, str | None] = {}
    if args.trace:
        saved[obs_runtime.TRACE_ENV] = os.environ.get(obs_runtime.TRACE_ENV)
        os.environ[obs_runtime.TRACE_ENV] = args.trace
    if args.metrics_out:
        saved[obs_runtime.METRICS_ENV] = os.environ.get(obs_runtime.METRICS_ENV)
        os.environ[obs_runtime.METRICS_ENV] = "1"
    try:
        return run()
    finally:
        obs_runtime.flush_trace()
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
        if args.trace:
            from repro.obs.jsonl import merge_trace_parts

            count = merge_trace_parts(args.trace)
            print(
                f"wrote {count} trace event(s) to {args.trace}", file=sys.stderr
            )


def _cmd_run(args) -> int:
    from repro.exec import ResultCache

    try:
        ids = _resolve_ids(args.experiment)
    except UnknownExperimentError as exc:
        print(f"zns-repro: error: {exc} (see 'zns-repro list')", file=sys.stderr)
        return 2
    if not ids:
        print("zns-repro: error: no experiments selected", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("zns-repro: error: --jobs must be >= 1", file=sys.stderr)
        return 2

    configs = [
        ExperimentConfig(key, full=args.full, seed=args.seed) for key in ids
    ]
    # Telemetry comes from actually running the devices; cached results
    # carry no event stream, so instrumented runs bypass the cache.
    instrumented = bool(args.trace or args.metrics_out or args.profile)
    cache = None
    if not args.no_cache and not instrumented:
        cache = ResultCache(args.cache_dir) if args.cache_dir else ResultCache()
    try:
        records = _run_instrumented(configs, cache, args)
    except OSError as exc:
        # Experiments themselves do no file I/O; an OSError here means the
        # cache directory or a --trace/--metrics-out path is unusable.
        print(f"zns-repro: error: cache or output path unusable: {exc}", file=sys.stderr)
        return 2

    if args.metrics_out:
        metrics = {
            record.config.experiment_id: record.result.metrics
            for record in records
        }
        try:
            with open(args.metrics_out, "w") as handle:
                json.dump(metrics, handle, indent=1, sort_keys=True)
        except OSError as exc:
            print(
                f"zns-repro: error: cannot write {args.metrics_out}: {exc}",
                file=sys.stderr,
            )
            return 2
        print(
            f"wrote metrics for {len(metrics)} experiment(s) to {args.metrics_out}",
            file=sys.stderr,
        )
    # Records that produced a usable result; hard failures (no result
    # beyond a placeholder) stay out of the JSON payload so downstream
    # consumers see partial-but-valid data plus a nonzero exit code.
    succeeded = [record for record in records if record.error is None]
    failed = [record for record in records if record.error is not None]
    degraded = [record for record in succeeded if not record.ok]
    payload = [record.result.to_dict() for record in succeeded]
    if args.out:
        try:
            with open(args.out, "w") as handle:
                json.dump(payload, handle, indent=1, sort_keys=True)
        except OSError as exc:
            print(f"zns-repro: error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {len(payload)} result(s) to {args.out}", file=sys.stderr)
    for record in failed:
        print(f"zns-repro: FAILED {record.error.describe()}", file=sys.stderr)
    for record in degraded:
        lost = len(record.result.metrics.get("errors", []))
        print(
            f"zns-repro: PARTIAL {record.config.experiment_id}: "
            f"{lost} sweep point(s) failed (details in result metrics)",
            file=sys.stderr,
        )
    exit_code = 1 if failed or degraded else 0
    if args.json:
        print(json.dumps(payload, indent=1, sort_keys=True))
        return exit_code
    for record in succeeded:
        print(_render(record.result, args.format))
        provenance = "cached" if record.cached else f"finished in {record.duration_s:.1f}s"
        print(f"[{record.config.experiment_id} {provenance}]\n")
    return exit_code


def _cmd_chart(args) -> int:
    from repro.experiments.figures import render_figure

    try:
        config = ExperimentConfig(resolve_id(args.experiment), full=args.full, seed=args.seed)
        result = run_config(config)
        print(f"{result.experiment_id}: {result.title}")
        print(render_figure(result))
    except (UnknownExperimentError, KeyError) as exc:
        print(exc, file=sys.stderr)
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for key in MODULES:
            print(f"{key:>4}  {_DESCRIPTIONS.get(key, '')}")
        return 0
    if args.command == "chart":
        return _cmd_chart(args)
    return _cmd_run(args)


__all__ = ["SCHEMA_VERSION", "main"]


if __name__ == "__main__":
    raise SystemExit(main())
