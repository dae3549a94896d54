"""Section V-C point study: constant-energy amortization on-package.

A 32-GPM on-package (2x-BW) system where platform overheads (regulators,
cooling, host I/O) can be shared across GPMs: with 50 % of the per-GPM
constant energy amortized, absolute energy drops 22.3 % and EDPSE rises
8.1 % versus no amortization; at a 25 % amortization rate the saving is
10.4 % with a 3.5 % EDPSE gain.  Pure re-pricing of cached simulations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.energy_model import EnergyParams
from repro.experiments.render import render_table
from repro.experiments.runner import SweepRunner
from repro.experiments.study import run_scaling_study, scaling_configs
from repro.gpu.config import BandwidthSetting
from repro.workloads.suite import SCALING_SUBSET

PAPER_ENERGY_SAVING_50 = 22.3   # percent
PAPER_EDPSE_GAIN_50 = 8.1       # percent
PAPER_ENERGY_SAVING_25 = 10.4   # percent
PAPER_EDPSE_GAIN_25 = 3.5       # percent


@dataclass
class AmortizationResult:
    #: amortization rate -> (mean energy ratio vs 1-GPM, mean EDPSE %)
    by_rate: dict[float, tuple[float, float]]

    def render(self) -> str:
        """Render this result as the paper-style ASCII table."""
        base_energy, base_edpse = self.by_rate[0.0]
        rows = []
        for rate in sorted(self.by_rate):
            energy, edpse = self.by_rate[rate]
            rows.append(
                [
                    f"{rate * 100:.0f}%",
                    energy,
                    (1.0 - energy / base_energy) * 100.0,
                    edpse,
                    (edpse - base_edpse) / base_edpse * 100.0,
                ]
            )
        return render_table(
            "Section V-C: constant-energy amortization at 32-GPM (2x-BW on-package)",
            [
                "amortized share",
                "energy (norm.)",
                "energy saved (%)",
                "EDPSE (%)",
                "EDPSE gain (%)",
            ],
            rows,
            note=(
                "Paper: 50% amortization saves 22.3% energy (+8.1% EDPSE);"
                " 25% saves 10.4% (+3.5%)."
            ),
        )


def run(
    runner: SweepRunner | None = None,
    workload_abbrs: tuple[str, ...] = SCALING_SUBSET,
    spec_for=None,
) -> AmortizationResult:
    """Execute (or fetch from cache) the amortization study."""
    runner = runner or SweepRunner()
    configs = scaling_configs(BandwidthSetting.BW_2X, counts=(32,))
    by_rate: dict[float, tuple[float, float]] = {}
    for rate in (0.0, 0.25, 0.5):
        def params_for(config, _rate=rate):
            params = EnergyParams.for_config(config)
            if config.num_gpms == 1:
                return params
            return params.with_amortization(1.0 - _rate)

        study = run_scaling_study(
            runner, configs, label=f"amortization-{rate}",
            params_for=params_for,
            workload_abbrs=workload_abbrs, spec_for=spec_for,
        )
        by_rate[rate] = (study.mean_energy_ratio(32), study.mean_edpse(32))
    return AmortizationResult(by_rate=by_rate)
