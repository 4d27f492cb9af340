"""Content-addressed on-disk result cache.

A cache entry is one JSON file named by the SHA-256 of the
:class:`~repro.experiments.base.ExperimentConfig`'s canonical encoding
plus the *code version* -- a digest over every ``repro`` source file. The
key therefore changes when either the inputs or the code change: an edit
to any ``repro`` module invalidates every entry, so stale results can
never be served after a refactor, and a repeated run with no edit in
between is served whole from the cache.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.experiments.base import SCHEMA_VERSION, ExperimentConfig, ExperimentResult

#: Environment override for the cache location (beats the default,
#: loses to an explicit ``cache_dir`` argument / ``--cache-dir`` flag).
CACHE_DIR_ENV = "ZNS_REPRO_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$ZNS_REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/zns-repro``, else ``~/.cache/zns-repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "zns-repro"


@functools.lru_cache(maxsize=1)
def code_version() -> str:
    """Digest over the installed ``repro`` sources (order-stable)."""
    package_root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(path.relative_to(package_root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0


@dataclass
class ResultCache:
    """Maps configs to stored :class:`ExperimentResult` payloads.

    ``cache_dir`` (created on first store) defaults to
    :func:`default_cache_dir`; ``version``, the code-version part of the
    key, to :func:`code_version` (tests pin it to exercise invalidation).
    """

    cache_dir: Path = field(default_factory=default_cache_dir)
    version: str = field(default_factory=code_version)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.cache_dir = Path(self.cache_dir)

    def key(self, config: ExperimentConfig) -> str:
        digest = hashlib.sha256()
        digest.update(config.canonical_json().encode())
        digest.update(b"\0")
        digest.update(self.version.encode())
        return digest.hexdigest()

    def path(self, config: ExperimentConfig) -> Path:
        return self.cache_dir / f"{self.key(config)}.json"

    def get(self, config: ExperimentConfig) -> ExperimentResult | None:
        """The cached result, or None on miss (corrupt entries are misses)."""
        path = self.path(config)
        try:
            payload = json.loads(path.read_text())
            result = ExperimentResult.from_dict(payload["result"])
        except (OSError, ValueError, KeyError, TypeError):
            self.stats.misses += 1
            return None
        if result.experiment_id != config.experiment_id:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return result

    def put(self, config: ExperimentConfig, result: ExperimentResult) -> Path:
        """Store a result; atomic against concurrent writers of the same key."""
        path = self.path(config)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "schema_version": SCHEMA_VERSION,
            "code_version": self.version,
            "config": config.to_dict(),
            "result": result.to_dict(),
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, sort_keys=True, indent=1))
        os.replace(tmp, path)
        self.stats.stores += 1
        return path


__all__ = ["CACHE_DIR_ENV", "CacheStats", "ResultCache", "code_version", "default_cache_dir"]
