"""Section VII headline numbers: the path to energy-efficient strong scaling.

The conclusion quantifies the fix: take the 32-GPM on-board 1x-BW design
(~2x the 1-GPM energy) and (a) quadruple inter-GPM bandwidth — energy drops
27.4 % on average; (b) additionally move on-package and amortize constant
energy — total reduction reaches ~45 %, leaving energy growth near +10 %
while strong-scaling performance reaches ~18x.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.render import render_table
from repro.experiments.runner import SweepRunner
from repro.experiments.study import run_scaling_study, scaling_configs
from repro.gpu.config import BandwidthSetting, IntegrationDomain
from repro.workloads.suite import SCALING_SUBSET

PAPER_BANDWIDTH_ONLY_SAVING = 27.4   # percent
PAPER_TOTAL_SAVING = 45.0            # percent
PAPER_FINAL_SPEEDUP = 18.0


@dataclass
class HeadlineResult:
    energy_onboard_1x: float      # normalized to 1-GPM
    energy_onboard_4x: float
    energy_onpackage_4x: float
    speedup_onpackage_4x: float

    @property
    def bandwidth_only_saving_percent(self) -> float:
        return (1.0 - self.energy_onboard_4x / self.energy_onboard_1x) * 100.0

    @property
    def total_saving_percent(self) -> float:
        return (1.0 - self.energy_onpackage_4x / self.energy_onboard_1x) * 100.0

    def render(self) -> str:
        """Render this result as the paper-style ASCII table."""
        rows = [
            ["32-GPM on-board 1x-BW energy (vs 1-GPM)", 2.0, self.energy_onboard_1x],
            ["energy saving from 4x bandwidth (%)", PAPER_BANDWIDTH_ONLY_SAVING,
             self.bandwidth_only_saving_percent],
            ["total saving incl. on-package amortization (%)", PAPER_TOTAL_SAVING,
             self.total_saving_percent],
            ["final 32-GPM speedup (4x-BW on-package)", PAPER_FINAL_SPEEDUP,
             self.speedup_onpackage_4x],
        ]
        return render_table(
            "Section VII headline: fixing 32-GPM energy efficiency",
            ["metric", "paper", "measured"],
            rows,
        )


def run(
    runner: SweepRunner | None = None,
    workload_abbrs: tuple[str, ...] = SCALING_SUBSET,
    spec_for=None,
) -> HeadlineResult:
    """Execute (or fetch from cache) the headline comparison."""
    runner = runner or SweepRunner()

    onboard_1x = run_scaling_study(
        runner,
        scaling_configs(
            BandwidthSetting.BW_1X, domain=IntegrationDomain.ON_BOARD, counts=(32,)
        ),
        label="on-board/1x",
        workload_abbrs=workload_abbrs, spec_for=spec_for,
    )
    onboard_4x = run_scaling_study(
        runner,
        scaling_configs(
            BandwidthSetting.BW_4X, domain=IntegrationDomain.ON_BOARD, counts=(32,)
        ),
        label="on-board/4x",
        workload_abbrs=workload_abbrs, spec_for=spec_for,
    )
    onpackage_4x = run_scaling_study(
        runner,
        scaling_configs(BandwidthSetting.BW_4X, counts=(32,)),
        label="on-package/4x",
        workload_abbrs=workload_abbrs, spec_for=spec_for,
    )
    return HeadlineResult(
        energy_onboard_1x=onboard_1x.mean_energy_ratio(32),
        energy_onboard_4x=onboard_4x.mean_energy_ratio(32),
        energy_onpackage_4x=onpackage_4x.mean_energy_ratio(32),
        speedup_onpackage_4x=onpackage_4x.geomean_speedup(32),
    )
