"""Which functions in ``src/repro`` do the paper-facing runs never enter?

Runs ``zns-repro run all`` and ``zns-repro run E15,E16,E17`` through
``cli.main`` under cProfile, each twice against one temporary
``--cache-dir`` (a miss, then a hit, so the result cache is measured too),
then walks every ``def`` in ``src/repro`` with ``ast``. A def counts as
never entered when cProfile recorded no call to its code object; nested
defs inside a never-entered def are folded into it. Defs whose body is
only a docstring, ``...``, ``pass`` or ``raise NotImplementedError``
(abstract methods, protocol members) have nothing to run and are skipped.

Every never-entered def must be on ``scripts/reachability_allowlist.txt``,
one per line as ``path::Qualname  reason``, with the reason from a closed
set: ``cli``, ``invariant``, ``oracle``, ``serialization``, ``benchmark``
or ``item-N`` (owned by open ROADMAP item N). Exit status is 1 if any
never-entered def is missing from the list, a line is malformed, or an
entry names a def that is now entered (or gone): drop that line.

Usage::

    python scripts/reachability.py            # about 1-2 minutes
    python scripts/reachability.py --list     # print every never-entered def
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import cProfile
import io
import re
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = Path(__file__).resolve().with_name("reachability_allowlist.txt")
REASONS = re.compile(r"(cli|invariant|oracle|serialization|benchmark|item-[0-9]+)")
RUNS = (["run", "all"], ["run", "E15,E16,E17"])


@dataclass(frozen=True)
class Def:
    """One ``def`` in the package: its allowlist key and where it lives."""

    path: str  # relative to src/, e.g. repro/flash/nand.py
    qualname: str
    first_line: int  # first decorator line, else the def line (cProfile's key)
    lines: int  # the def line through the end of its body

    @property
    def key(self) -> str:
        return f"{self.path}::{self.qualname}"


def run_experiments() -> None:
    sys.path.insert(0, str(SRC))
    from repro.experiments import cli

    with tempfile.TemporaryDirectory() as cache_dir:
        for argv in RUNS:
            for _ in range(2):  # a miss, then a hit
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    status = cli.main([*argv, "--jobs", "1", "--cache-dir", cache_dir])
                if status != 0:
                    sys.exit(f"reachability: `zns-repro {' '.join(argv)}` exited {status}")


def entered_code(profiler: cProfile.Profile) -> set[tuple[str, int]]:
    profiler.create_stats()
    resolved = {(str(Path(name).resolve()), line) for name, line, _ in profiler.stats}
    return {(name, line) for name, line in resolved if name.startswith(str(PACKAGE))}


def _is_stub(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # ``...``
        if isinstance(stmt, ast.Raise) and "NotImplementedError" in ast.unparse(stmt):
            continue
        return False
    return True


def never_entered(entered: set[tuple[str, int]]) -> list[Def]:
    """Outermost never-entered defs, in file and line order."""
    found: list[Def] = []

    def visit(node: ast.AST, path: Path, rel: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, rel, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                qualname = prefix + child.name
                if (str(path), first) in entered:
                    visit(child, path, rel, f"{qualname}.<locals>.")
                elif not _is_stub(child):
                    lines = child.end_lineno - child.lineno + 1
                    found.append(Def(rel, qualname, first, lines))
            else:
                visit(child, path, rel, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        path = path.resolve()
        tree = ast.parse(path.read_text(), filename=str(path))
        visit(tree, path, path.relative_to(SRC).as_posix(), "")
    return found


def read_allowlist() -> tuple[dict[str, str], list[str]]:
    entries: dict[str, str] = {}
    errors: list[str] = []
    for number, raw in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2 or "::" not in parts[0] or not REASONS.fullmatch(parts[1]):
            errors.append(f"{ALLOWLIST.name}:{number}: expected `path::Qualname  reason`, "
                          f"reason one of {REASONS.pattern}: {raw!r}")
            continue
        if parts[0] in entries:
            errors.append(f"{ALLOWLIST.name}:{number}: duplicate entry {parts[0]}")
        entries[parts[0]] = parts[1]
    return entries, errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="print every never-entered def")
    args = parser.parse_args(argv)

    # Nothing from ``repro`` is imported before the profiler starts, so
    # import-time work (registration decorators such as ``experiment``) is
    # seen as entered.
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run_experiments()
    finally:
        profiler.disable()
    dead = never_entered(entered_code(profiler))
    allowed, errors = read_allowlist()

    total = sum(d.lines for d in dead)
    print(f"never entered: {total} lines in {len(dead)} defs")
    if args.list:
        for d in dead:
            print(f"{d.key}  {d.lines}")
    stale = sorted(set(allowed) - {d.key for d in dead})
    for key in stale:
        print(f"error: stale allowlist entry (entered now, or gone): {key}")
    for message in errors:
        print(f"error: {message}")
    missing = [d for d in dead if d.key not in allowed]
    for d in missing:
        print(f"error: never entered and not on the allowlist: {d.key} "
              f"(line {d.first_line}, {d.lines} lines)")
    return 1 if missing or errors or stale else 0


if __name__ == "__main__":
    sys.exit(main())
