"""Figure 6: EDPSE vs GPM count for the baseline on-package (2x-BW) design.

The paper reports: compute-intensive workloads exceed 100 % EDPSE at small
GPM counts; memory-intensive workloads sit far lower; the all-workload mean
peaks at 94 % (2-GPM) and collapses to 36 % at 32-GPM, crossing the 50 %
"parallel efficiency" threshold beyond 16 GPMs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.render import render_table
from repro.experiments.results import ScalingRow
from repro.experiments.runner import SweepRunner
from repro.experiments.study import (
    SCALED_GPM_COUNTS,
    StudyResult,
    run_scaling_study,
    scaling_configs,
)
from repro.gpu.config import BandwidthSetting
from repro.isa.kernel import WorkloadCategory

#: Paper-reported values for EXPERIMENTS.md comparisons.
PAPER_MAX_MEAN_EDPSE = 94.0
PAPER_MEAN_EDPSE_32GPM = 36.0
PAPER_THRESHOLD = 50.0


@dataclass
class Fig6Result:
    """EDPSE series by category for each scaled GPM count."""

    study: StudyResult
    rows: list[ScalingRow]

    def render(self) -> str:
        """Render this result as the paper-style ASCII table."""
        table_rows = [
            [
                f"{row.num_gpms}-GPM",
                row.values["compute"],
                row.values["memory"],
                row.values["all"],
            ]
            for row in self.rows
        ]
        return render_table(
            "Figure 6: EDPSE (%) — on-package, 2x-BW ring",
            ["config", "compute-intensive", "memory-intensive", "all"],
            table_rows,
            note=(
                "Paper shape: compute > 100% at small counts; mean 94% at"
                " 2-GPM falling to 36% at 32-GPM; 50% threshold crossed"
                " beyond 16 GPMs."
            ),
        )


def run(
    runner: SweepRunner | None = None,
    counts: tuple[int, ...] = SCALED_GPM_COUNTS,
    workload_abbrs: tuple[str, ...] | None = None,
    spec_for=None,
) -> Fig6Result:
    """Execute (or fetch from cache) the Figure 6 study.

    ``counts``/``workload_abbrs``/``spec_for`` reduce the grid for the
    ``repro figures --quick`` tier; the defaults reproduce the paper figure.
    """
    runner = runner or SweepRunner()
    configs = scaling_configs(BandwidthSetting.BW_2X, counts=counts)
    study = run_scaling_study(
        runner, configs, label="on-package/2x-BW",
        **({} if workload_abbrs is None else {"workload_abbrs": workload_abbrs}),
        spec_for=spec_for,
    )
    rows = []
    for n in study.scaled_counts:
        rows.append(
            ScalingRow(
                num_gpms=n,
                label=f"{n}-GPM",
                values={
                    "compute": study.mean_edpse(n, WorkloadCategory.COMPUTE),
                    "memory": study.mean_edpse(n, WorkloadCategory.MEMORY),
                    "all": study.mean_edpse(n),
                },
            )
        )
    return Fig6Result(study=study, rows=rows)
