"""Structured failure reporting for the executor.

A unit of work that fails costs exactly its own result, not the run.
:class:`ErrorResult` records enough to debug it offline, and is JSON-safe
so it travels through ``--json`` output and result metrics unchanged.
"""

from __future__ import annotations

import traceback
from dataclasses import asdict, dataclass
from typing import Any


@dataclass
class ErrorResult:
    """One failed unit of work: a whole experiment or a single sweep point.

    ``error_type`` is the exception's class name, or ``"WorkerDied"`` for
    a unit lost with a killed worker (no exception reaches the parent
    then, so ``traceback`` is empty). ``config_hash`` ties the failure to
    an exact configuration (the cache key material); ``point_index`` is
    the sweep point slot, or -1 when the whole experiment failed.
    """

    experiment_id: str
    error_type: str
    message: str
    traceback: str = ""
    config_hash: str = ""
    point_index: int = -1

    @classmethod
    def from_exception(
        cls,
        exc: BaseException,
        experiment_id: str = "",
        config_hash: str = "",
        point_index: int = -1,
    ) -> "ErrorResult":
        return cls(
            experiment_id=experiment_id,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback="".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
            config_hash=config_hash,
            point_index=point_index,
        )

    def describe(self) -> str:
        """One-line summary for progress output."""
        where = f" point {self.point_index}" if self.point_index >= 0 else ""
        first = self.message.splitlines()[0] if self.message else ""
        return f"{self.experiment_id}{where}: {self.error_type}: {first}"

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ErrorResult":
        return cls(**payload)


__all__ = ["ErrorResult"]
