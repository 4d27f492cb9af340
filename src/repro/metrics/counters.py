"""Operation counters and throughput meters."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class OpCounter:
    """Counts of device-level operations and bytes moved.

    Devices own one and book every primitive operation through the
    ``note_*`` methods, the one place the count/byte arithmetic lives
    (:class:`~repro.obs.sinks.OpCounterSink` rebuilds the totals from the
    trace stream through the same methods): ``count`` pages (blocks, for
    an erase) moved by one command, ``nbytes`` in total. Experiments read
    the fields to compute write amplification, erase counts, and I/O mixes.
    """

    reads: int = 0
    writes: int = 0
    erases: int = 0
    copies: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    bytes_copied: int = 0

    def note_read(self, nbytes: int, count: int = 1) -> None:
        self.reads += count
        self.bytes_read += nbytes

    def note_write(self, nbytes: int, count: int = 1) -> None:
        self.writes += count
        self.bytes_written += nbytes

    def note_erase(self, count: int = 1) -> None:
        self.erases += count

    def note_copy(self, nbytes: int, count: int = 1, programs: bool = False) -> None:
        """``programs=True`` (physical NAND) also books the bytes as programmed;
        command-level layers (ZNS simple copy) count the copy alone."""
        self.copies += count
        self.bytes_copied += nbytes
        if programs:
            self.bytes_written += nbytes

    def snapshot(self) -> "OpCounter":
        """A copy frozen at this instant (for before/after diffs)."""
        return OpCounter(
            reads=self.reads,
            writes=self.writes,
            erases=self.erases,
            copies=self.copies,
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
            bytes_copied=self.bytes_copied,
        )

    def delta(self, earlier: "OpCounter") -> "OpCounter":
        """Counters accumulated since ``earlier`` (a prior snapshot)."""
        return OpCounter(
            reads=self.reads - earlier.reads,
            writes=self.writes - earlier.writes,
            erases=self.erases - earlier.erases,
            copies=self.copies - earlier.copies,
            bytes_read=self.bytes_read - earlier.bytes_read,
            bytes_written=self.bytes_written - earlier.bytes_written,
            bytes_copied=self.bytes_copied - earlier.bytes_copied,
        )


@dataclass
class ThroughputMeter:
    """Tracks completed work against simulated time to yield throughput.

    ``record(nbytes)`` marks one completed request; ``mb_per_sec(now)``
    converts to MB/s over the window since construction (or last reset).
    Time is in simulation microseconds to match the DES clock.
    """

    start_time: float = 0.0
    bytes_done: int = 0
    ops_done: int = 0
    _last_time: float = field(default=0.0, repr=False)

    def record(self, nbytes: int, now: float) -> None:
        self.bytes_done += nbytes
        self.ops_done += 1
        self._last_time = now

    def elapsed(self, now: float | None = None) -> float:
        end = self._last_time if now is None else now
        return max(end - self.start_time, 0.0)

    def mb_per_sec(self, now: float | None = None) -> float:
        elapsed_us = self.elapsed(now)
        if elapsed_us <= 0:
            return 0.0
        return (self.bytes_done / (1024 * 1024)) / (elapsed_us / 1e6)

    def ops_per_sec(self, now: float | None = None) -> float:
        elapsed_us = self.elapsed(now)
        if elapsed_us <= 0:
            return 0.0
        return self.ops_done / (elapsed_us / 1e6)

    def reset(self, now: float) -> None:
        self.start_time = now
        self._last_time = now
        self.bytes_done = 0
        self.ops_done = 0


__all__ = ["OpCounter", "ThroughputMeter"]
