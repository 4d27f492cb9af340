"""E10: NAND timing ladder and the erase/program ratio (§2.1).

"Erasing takes several times longer than programming (~6x for TLC)."

Renders the cell-technology timing/endurance table the primer describes
and validates the erase/program ratio in the live timing model against an
actual measured erase and program on the simulated array.
"""

from __future__ import annotations

from repro.experiments.base import ExperimentConfig, ExperimentResult, experiment
from repro.flash.cells import CellType
from repro.flash.geometry import FlashGeometry
from repro.flash.nand import NandArray
from repro.flash.timing import TimingModel


@experiment("E10")
def run(config: ExperimentConfig) -> ExperimentResult:
    rows = []
    for cell in CellType:
        chars = cell.characteristics
        rows.append(
            {
                "cell": cell.name,
                "bits": chars.bits_per_cell,
                "read_us": chars.read_us,
                "program_us": chars.program_us,
                "erase_us": chars.erase_us,
                "erase_program_ratio": round(chars.erase_program_ratio, 2),
                "endurance_cycles": chars.endurance_cycles,
            }
        )

    # Live validation: measure one program and one erase on the array.
    nand = NandArray(FlashGeometry.small(CellType.TLC), TimingModel.for_cell(CellType.TLC))
    program_latency = nand.program(0, "host")
    erase_latency = nand.erase(0, "host")
    measured_ratio = erase_latency / (
        program_latency - nand.timing.transfer_us(nand.geometry.page_size)
    )
    tlc_ratio = CellType.TLC.characteristics.erase_program_ratio
    return ExperimentResult(
        experiment_id="E10",
        title="Cell-technology timing ladder; TLC erase/program ratio",
        paper_claim="Erase takes ~6x longer than program for TLC",
        rows=rows,
        headline={
            "tlc_erase_program_ratio": round(tlc_ratio, 2),
            "measured_on_array": round(measured_ratio, 2),
            "within_5x_to_7x": 5.0 <= tlc_ratio <= 7.0,
        },
        notes="Array measurement strips the channel-transfer component.",
    )


__all__ = ["run"]
