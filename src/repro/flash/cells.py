"""NAND cell technologies and their characteristics.

The paper's primer (§2.1) notes a cell stores one (SLC) to five (PLC) bits
depending on how many voltage levels it programs and retains. More bits per
cell means cheaper capacity but slower programming (more incremental
program/verify steps), slower reads (finer sensing), and far lower
endurance. The numbers below are representative 2020-era values drawn from
datasheets and the literature the paper cites (e.g. Wu & He [54] for the
~6x erase/program ratio on TLC); experiments depend on the *ratios*, not
the absolute values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


@dataclass(frozen=True)
class CellCharacteristics:
    """Representative physical parameters for one cell technology."""

    bits_per_cell: int
    read_us: float  # page read (tR)
    program_us: float  # page program (tProg)
    erase_us: float  # block erase (tBERS)
    endurance_cycles: int  # rated program/erase cycles before retirement
    relative_cost_per_gb: float  # normalized to TLC = 1.0

    @property
    def erase_program_ratio(self) -> float:
        return self.erase_us / self.program_us


class CellType(enum.Enum):
    """SLC through PLC, with representative timing/endurance parameters."""

    SLC = CellCharacteristics(
        bits_per_cell=1,
        read_us=25.0,
        program_us=200.0,
        erase_us=1500.0,
        endurance_cycles=100_000,
        relative_cost_per_gb=3.0,
    )
    MLC = CellCharacteristics(
        bits_per_cell=2,
        read_us=50.0,
        program_us=450.0,
        erase_us=3000.0,
        endurance_cycles=10_000,
        relative_cost_per_gb=1.5,
    )
    TLC = CellCharacteristics(
        bits_per_cell=3,
        read_us=75.0,
        # tProg 560us, tBERS 3.5ms: erase/program ratio ~6.25x, matching the
        # "~6x for TLC" figure the paper cites from [54].
        program_us=560.0,
        erase_us=3500.0,
        endurance_cycles=3_000,
        relative_cost_per_gb=1.0,
    )
    QLC = CellCharacteristics(
        bits_per_cell=4,
        read_us=120.0,
        program_us=2000.0,
        erase_us=10000.0,
        endurance_cycles=1_000,
        relative_cost_per_gb=0.8,
    )
    PLC = CellCharacteristics(
        bits_per_cell=5,
        read_us=180.0,
        program_us=4500.0,
        erase_us=20000.0,
        endurance_cycles=300,
        relative_cost_per_gb=0.65,
    )

    @property
    def characteristics(self) -> CellCharacteristics:
        return self.value

    @property
    def endurance_cycles(self) -> int:
        return self.value.endurance_cycles


__all__ = ["CellCharacteristics", "CellType"]
