"""Operation records emitted by device state machines.

Device models (conventional FTL, ZNS) mutate state immediately and, when
the caller asks (``build_ops=True``, every command's default), return
:class:`FlashOp` records describing the physical operations that occurred.
Timed experiments replay them against the
:class:`~repro.flash.service.FlashServiceModel` so operations contend for
planes and channels in the DES, and the fleet prices requests by them;
untimed callers pass ``build_ops=False`` and no record is built.

A requested record is built per host page and per GC copy, so
:class:`FlashOp` is a ``NamedTuple``: one ``tuple.__new__`` where a frozen
dataclass paid four ``object.__setattr__``, and still immutable and hashed
by value.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class OpKind(enum.Enum):
    READ = "read"
    PROGRAM = "program"
    ERASE = "erase"
    COPY = "copy"  # device-internal copy (copyback / simple copy)
    MGMT = "mgmt"  # zone-management overhead (reset/finish command cost)


class FlashOp(NamedTuple):
    """One physical NAND operation that a device performed.

    ``latency_us`` is the array+transfer time from the timing model;
    ``block`` locates the operation for plane/channel contention. ``page``
    is None for erases. ``uses_channel`` distinguishes device-internal
    copies (no host-interface transfer, and for on-die copyback no channel
    transfer at all) from host reads/programs.
    """

    kind: OpKind
    block: int
    page: int | None
    latency_us: float
    uses_channel: bool = True


__all__ = ["FlashOp", "OpKind"]
