"""Table Ib: EPI/EPT calibration against (synthetic) silicon.

Runs the full Figure 3 campaign — compute loops, the low-occupancy stall
probe, the pointer-chase ladder — against a seeded silicon instance and
reports the recovered EPI/EPT values next to the paper's published Table Ib
numbers.  The paper's values are the nominal center of the silicon's
per-opcode spread, so recovered values should track them within that spread.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.epi_tables import EPI_TABLE_NJ, EPT_TABLE, TransactionKind
from repro.core.refinement import CalibratedModel, CalibrationCampaign
from repro.experiments.render import render_table
from repro.isa.opcodes import TABLE_1B_COMPUTE_OPCODES
from repro.power.meter import PowerMeter
from repro.power.silicon import SiliconGpu

_EPT_ROW_LABELS = {
    TransactionKind.SHARED_TO_RF: "Shared Memory to Register File",
    TransactionKind.L1_TO_RF: "L1 Cache to Register File",
    TransactionKind.L2_TO_L1: "L2 Cache to L1 Cache",
    TransactionKind.DRAM_TO_L2: "DRAM to L2 Cache",
}


@dataclass
class Table1bResult:
    model: CalibratedModel
    silicon: SiliconGpu

    def render(self) -> str:
        """Render this result as the paper-style ASCII table."""
        rows: list[list[object]] = []
        for opcode in TABLE_1B_COMPUTE_OPCODES:
            rows.append(
                [
                    opcode.name,
                    EPI_TABLE_NJ[opcode],
                    round(self.model.epi_nj[opcode], 3),
                    round(self.silicon.true_epi_nj(opcode), 3),
                ]
            )
        for kind in TransactionKind:
            rows.append(
                [
                    _EPT_ROW_LABELS[kind],
                    EPT_TABLE[kind][0],
                    round(self.model.ept_nj[kind], 3),
                    round(self.silicon.true_ept_nj(kind), 3),
                ]
            )
        rows.append(
            [
                "EPStall (nJ/SM-cycle)",
                "-",
                round(self.model.ep_stall_nj, 3),
                self.silicon.effects.true_stall_nj,
            ]
        )
        return render_table(
            "Table Ib: calibrated EPI/EPT (nJ) vs paper values",
            ["operation", "paper", "calibrated", "silicon truth"],
            rows,
            note=(
                "Calibrated values should recover the silicon truth; the"
                " paper column is the nominal center of the silicon's"
                " per-op spread."
            ),
        )


def run(_runner=None, seed: int = 40) -> Table1bResult:
    """Run the calibration campaign against a fresh silicon instance."""
    silicon = SiliconGpu(seed=seed)
    campaign = CalibrationCampaign(PowerMeter(silicon))
    model = campaign.calibrate(refine=True)
    return Table1bResult(model=model, silicon=silicon)
