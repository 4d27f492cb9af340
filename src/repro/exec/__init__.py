"""The execution subsystem: cached, parallel experiment running.

``repro.exec`` sits between the experiment registry
(:mod:`repro.experiments.runner`) and the CLI: :func:`execute` runs
experiments and their sweep points, inline or over a process pool
(:mod:`~repro.exec.pool`); a content-addressed on-disk cache keyed on
config hash + code version serves repeats (:mod:`~repro.exec.cache`);
progress lines and a summary report the run (:mod:`~repro.exec.progress`);
and a unit that fails costs only its own result, as an
:class:`~repro.exec.errors.ErrorResult`.
"""

from repro.exec.cache import (
    CACHE_DIR_ENV,
    CacheStats,
    ResultCache,
    code_version,
    default_cache_dir,
)
from repro.exec.errors import ErrorResult
from repro.exec.pool import ExecutionRecord, execute
from repro.exec.progress import NullReporter, ProgressReporter

__all__ = [
    "CACHE_DIR_ENV",
    "CacheStats",
    "ErrorResult",
    "ExecutionRecord",
    "NullReporter",
    "ProgressReporter",
    "ResultCache",
    "code_version",
    "default_cache_dir",
    "execute",
]
