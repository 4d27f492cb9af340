#!/usr/bin/env python3
"""The perf ledger: absolute host-time walls per workload, and where they go.

Two ways in, one pipeline::

    python3 benchmarks/ledger/run.py [--seed N] [--repeats R] [--workloads a,b] [--out FILE]
    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/ledger/run.py --selftest

The first measures every workload R times (round-robin, so drift spreads
over all of them), then traces each once, and prints every metric declared
in ``BENCHMARK.json`` by name with its unit. The second is one run of one
workload as the benchmark driver asks for it: ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones, as one JSON object on
the last line. Every pass runs in a fresh child process (``child.py``);
this process never imports ``repro``.
"""

from __future__ import annotations

import argparse
import ast
import importlib.metadata
import importlib.util
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import checks
import spec

E2E = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
#: What the clocks read before child.SpeedProbe's correction, and the correction.
MEASURED = ("raw_wall_s", "raw_cpu_s", "box_speed")
#: Set-ups measured per workload before ``setup_s`` is reported as a median.
SETUP_SAMPLES = 3
#: Telemetry switches of the program that must not leak into a pass.
_SCRUBBED_ENV = ("ZNS_REPRO_TRACE", "ZNS_REPRO_METRICS", "ZNS_REPRO_PROFILE")
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_child(name: str, seed: int, shrunk: bool, *flags: str) -> dict[str, Any]:
    """One pass of ``name`` in a fresh process; its JSON report."""
    env = {key: value for key, value in os.environ.items() if key not in _SCRUBBED_ENV}
    env["PYTHONHASHSEED"] = "0"
    command = [sys.executable, str(spec.HERE / "child.py"), "--workload", name]
    command += ["--seed", str(seed), *flags, *(["--shrunk"] if shrunk else [])]
    proc = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"ledger: pass of {name} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


@dataclass
class Outcome:
    """Everything measured and checked for one workload."""

    samples: dict[str, list[float]] = field(
        default_factory=lambda: {metric: [] for metric in E2E + MEASURED}
    )
    ops_attempted: int = 0
    ops_failed: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    experiment_wall_s: dict[str, list[float]] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)

    def absorb(self, result: dict[str, Any], label: str, measured: bool = True) -> None:
        """Fold one pass in: its ops, its digests against the first pass's, its times."""
        failed = {key: why for key, why in result["ops"].items() if why}
        for key in checks.digest_mismatches(self.digests, result["digests"]):
            failed.setdefault(key, "result digest differs from the first pass's")
        model = result["model"]
        self.ops_attempted += len(result["ops"]) + model["attempted"]
        self.ops_failed += len(failed) + model["failed"]
        if model["failed"]:
            failed["dict model"] = f"{model['failed']} op(s) wrong, first: {model['first_failure']}"
        self.failures += [f"{label}: {key}: {why}" for key, why in failed.items()]
        for key, digest in result["digests"].items():
            self.digests.setdefault(key, digest)
        if measured:
            for metric in E2E + MEASURED:
                self.samples[metric].append(result[metric])
            for key, wall in result["experiment_wall_s"].items():
                self.experiment_wall_s.setdefault(key, []).append(wall)

    def median(self, metric: str) -> float:
        return statistics.median(self.samples[metric])

    def to_dict(self, declared: dict[str, Any]) -> dict[str, Any]:
        undeclared = set(self.per_layer) - {metric["name"] for metric in declared["per_layer"]}
        if undeclared:
            raise SystemExit(f"ledger: measured but not in BENCHMARK.json: {sorted(undeclared)}")
        end_to_end = {}
        for metric in declared["end_to_end"]:
            values = self.samples[metric["name"]]
            end_to_end[metric["name"]] = {
                "unit": metric["unit"],
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
                "n": len(values),
                "samples": values,
            }
        return {
            "ops_attempted": self.ops_attempted,
            "ops_failed": self.ops_failed,
            "failures": self.failures,
            "end_to_end": end_to_end,
            "measured": {metric: self.median(metric) for metric in MEASURED},
            "per_layer": {
                metric["name"]: {
                    "unit": metric["unit"],
                    "value": self.per_layer.get(metric["name"], 0),
                }
                for metric in declared["per_layer"]
            },
            "digests": self.digests,
        }


def top_up_setups(name: str, seed: int, outcome: Outcome, shrunk: bool = False) -> None:
    """Set up again, without running, until ``setup_s`` is a median of several."""
    while len(outcome.samples["setup_s"]) < SETUP_SAMPLES:
        report = run_child(name, seed, shrunk, "--setup-only")
        outcome.samples["setup_s"].append(report["setup_s"])


def trace(name: str, seed: int, outcome: Outcome, shrunk: bool = False) -> None:
    """Fill ``outcome.per_layer``: one traced pass, or for the pooled workload its serial twins.

    End-to-end numbers never come from here: the traced pass only says where
    the untraced wall goes, and ``trace.overhead_ratio`` what tracing cost.
    """
    workload = (spec.SHRUNK_WORKLOADS if shrunk else spec.WORKLOADS)[name]
    layers = outcome.per_layer
    wall_s, cpu_s = outcome.median("wall_s"), outcome.median("cpu_s")
    if workload.serial_twins:
        twins = [run_child(twin, seed, shrunk) for twin in workload.serial_twins]
        for twin_name, twin in zip(workload.serial_twins, twins):
            outcome.absorb(twin, f"jobs=1 twin {twin_name}", measured=False)
        layers["exec.jobs2_speedup"] = sum(twin["wall_s"] for twin in twins) / wall_s
        layers["exec.cpu_overhead_ratio"] = cpu_s / sum(twin["cpu_s"] for twin in twins)
        return
    traced = run_child(name, seed, shrunk, "--traced")
    outcome.absorb(traced, "traced pass", measured=False)
    layers.update(traced["layers"])
    layers["trace.overhead_ratio"] = traced["raw_wall_s"] / outcome.median("raw_wall_s")
    flash_ops = sum(layers.get(metric, 0) for metric in spec.FLASH_OP_COUNTS.values())
    if flash_ops:
        layers["host_us_per_flash_op"] = wall_s * 1e6 / flash_ops
    for key, walls in outcome.experiment_wall_s.items():
        layers[f"experiments.{key}.wall_s"] = statistics.median(walls)


def measure_for(name: str, seed: int, seconds: float, outcome: Outcome) -> None:
    """Whole passes for ``seconds``: always one, another while it would still fit."""
    spent = 0.0
    while True:
        started = time.perf_counter()
        label = f"pass {len(outcome.samples['wall_s']) + 1}"
        outcome.absorb(run_child(name, seed, False), label)
        last = time.perf_counter() - started
        spent += last
        if spent + last > seconds:
            return


# -- Reporting -----------------------------------------------------------------------


def fingerprint() -> dict[str, Any]:
    """The box and the code the numbers belong to."""
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    commit = "unknown"  # the driver's checkout is not a git repository
    try:
        git = subprocess.run(
            ["git", "-C", str(spec.ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )  # fmt: skip
        if git.returncode == 0:
            commit = git.stdout.strip()
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "REPRO_COMPILED": os.environ.get("REPRO_COMPILED"),
        "git_commit": commit,
        "loadavg_1m_start": os.getloadavg()[0],
    }


def print_workload(name: str, report: dict[str, Any], per_layer: bool = True) -> None:
    print(f"== {name}: {report['ops_attempted']} ops attempted, {report['ops_failed']} failed ==")
    for why in report["failures"][:10]:
        print(f"  FAILED {why}")
    for metric, row in report["end_to_end"].items():
        print(
            f"  {metric:<34} {row['median']:>14.4f} {row['unit']:<6} "
            f"(median of {row['n']}, {row['min']:.4f}..{row['max']:.4f})"
        )
    for metric, value in report["measured"].items():
        print(f"  {metric:<34} {value:>14.4f}")
    if per_layer:
        for metric, row in report["per_layer"].items():
            print(f"  {metric:<34} {row['value']:>14.6g} {row['unit']}")


# -- Entry points --------------------------------------------------------------------


def driver_run(args: argparse.Namespace, declared: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """One workload, as the benchmark driver runs it."""
    outcome = Outcome()
    if args.trace:
        outcome.absorb(run_child(args.workload, args.seed, False), "untraced pass")
        trace(args.workload, args.seed, outcome)
    else:
        measure_for(args.workload, args.seed, args.seconds, outcome)
        top_up_setups(args.workload, args.seed, outcome)
    report = outcome.to_dict(declared)
    print_workload(args.workload, report, per_layer=bool(args.trace))
    return {args.workload: report}


def driver_result(report: dict[str, Any], traced: bool) -> str:
    """The driver's last line: ``--trace 0`` end-to-end medians, ``--trace 1`` per-layer values."""
    section, value = ("per_layer", "value") if traced else ("end_to_end", "median")
    return json.dumps(
        {
            "correct": report["ops_failed"] == 0,
            "attempted": report["ops_attempted"],
            "failed": report["ops_failed"],
            "metrics": {
                metric: {"value": row[value], "unit": row["unit"]}
                for metric, row in report[section].items()
            },
        }
    )


def ledger_run(
    args: argparse.Namespace, declared: dict[str, Any], shrunk: bool = False
) -> dict[str, dict[str, Any]]:
    """Every selected workload: R interleaved untraced repeats, then one traced run each."""
    outcomes = {name: Outcome() for name in args.workloads}
    for repeat in range(args.repeats):
        for name, outcome in outcomes.items():
            outcome.absorb(run_child(name, args.seed, shrunk), f"repeat {repeat + 1}")
    reports = {}
    for name, outcome in outcomes.items():
        top_up_setups(name, args.seed, outcome, shrunk)
        trace(name, args.seed, outcome, shrunk)
        reports[name] = outcome.to_dict(declared)
        print_workload(name, reports[name])
    return reports


def repro_imports() -> set[str]:
    """Every ``repro`` name the benchmark's own files import, dotted."""
    found = set()
    for path in spec.HERE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
                found |= {f"{node.module}.{alias.name}" for alias in node.names}
            elif isinstance(node, ast.Import):
                found |= {a.name for a in node.names if a.name.split(".")[0] == "repro"}
    return found


def expect(holds: Any, what: str) -> None:
    if not holds:
        raise SystemExit(f"selftest: {what}")


def selftest(args: argparse.Namespace, declared: dict[str, Any]) -> int:
    """The whole pipeline over shrunken workloads, and the declarations held to the code."""
    names = [w["name"] for w in declared["workloads"]]
    end_to_end = [m["name"] for m in declared["end_to_end"]]
    per_layer = [m["name"] for m in declared["per_layer"]]
    expect(names == list(spec.WORKLOADS), "BENCHMARK.json and spec.py name different workloads")
    expect(tuple(end_to_end) == E2E, f"end-to-end metrics are {end_to_end}, measured are {E2E}")
    expect(len(names) <= 8 and len(end_to_end) <= 16 and len(per_layer) <= 128, "too many names")
    every = names + end_to_end + per_layer
    expect(len(set(every)) == len(every), "a name is used twice")
    expect(all(_NAME.fullmatch(name) for name in every), "a name breaks [A-Za-z0-9_.-]{1,64}")
    expect(all(m["unit"] for m in declared["end_to_end"] + declared["per_layer"]), "empty unit")
    imports = repro_imports()
    expect(imports == spec.ALLOWED_REPRO_IMPORTS, f"repro imports are {sorted(imports)}")

    args.workloads, args.repeats = names, 1
    reports = ledger_run(args, declared, shrunk=True)
    for name, report in reports.items():
        layers = {metric: row["value"] for metric, row in report["per_layer"].items()}
        expect(report["ops_failed"] == 0, f"{name}: {report['failures']}")
        expect(all(report["end_to_end"][m]["median"] > 0 for m in E2E), f"{name}: a zero metric")
        expect(list(layers) == per_layer, f"{name}: per-layer names differ from the declared")
        if not spec.WORKLOADS[name].serial_twins:
            # Every profiled row has a bucket: the buckets' shares sum to 1
            # of the traced wall (the clock reads just outside the profiler).
            busy = sum(value for metric, value in layers.items() if metric.endswith(".self_s"))
            share = busy / (layers["trace.overhead_ratio"] * report["measured"]["raw_wall_s"])
            expect(0.9 < share <= 1.0, f"{name}: buckets hold {share:.3f} of the traced wall")
    print("selftest ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    if not (spec.SRC / "repro").is_dir():
        print(f"ledger: no simulator to measure: {spec.SRC / 'repro'} is missing", file=sys.stderr)
        return 1
    declared = spec.load_declarations()
    names = [workload["name"] for workload in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--out", help="also write the ledger, with the box fingerprint, here")
    parser.add_argument("--repeats", type=int, default=3, help="untraced passes per workload")
    parser.add_argument(
        "--workloads",
        type=lambda text: text.split(","),
        default=names,
        help=f"comma-separated subset of {','.join(names)}",
    )
    parser.add_argument("--selftest", action="store_true", help="shrunken pipeline check, <30 s")
    driver = parser.add_argument_group("one run of one workload (the benchmark driver's form)")
    driver.add_argument("--workload", choices=names)
    driver.add_argument("--seconds", type=float, default=float(declared["run_seconds"]))
    driver.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    unknown = set(args.workloads) - set(names)
    if unknown or args.repeats < 1:
        parser.error(f"unknown workload(s) {sorted(unknown)}" if unknown else "--repeats < 1")
    if args.selftest:
        return selftest(args, declared)
    box = fingerprint()
    if box["loadavg_1m_start"] > box["nproc"] / 2:
        print(
            f"ledger: warning: 1-minute load {box['loadavg_1m_start']:.2f} exceeds half of "
            f"{box['nproc']} cores; host times will be noisy",
            file=sys.stderr,
        )
    started = time.perf_counter()
    reports = (driver_run if args.workload else ledger_run)(args, declared)
    elapsed_s = time.perf_counter() - started
    print(f"== {len(reports)} workload(s) in {elapsed_s:.1f} s ==")
    if args.out:
        box["loadavg_1m_end"] = os.getloadavg()[0]
        ledger = {"fingerprint": box, "seed": args.seed, "elapsed_s": elapsed_s}
        Path(args.out).write_text(json.dumps({**ledger, "workloads": reports}, indent=1) + "\n")
    if args.workload:
        print(driver_result(reports[args.workload], bool(args.trace)))
        return 0
    return 1 if any(report["ops_failed"] for report in reports.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
