"""Operation counters."""

from __future__ import annotations

from dataclasses import dataclass


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


__all__ = ["OpCounter"]
