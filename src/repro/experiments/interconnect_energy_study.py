"""Section V-C point study: sensitivity to interconnect energy per bit.

Using the 32-GPM on-board (1x-BW ring, 10 pJ/bit) design, the paper raises
the link energy 2x and 4x *without changing bandwidth* and finds the EDPSE
impact is below 1 % — while doubling bandwidth at 4x the energy/bit would
*improve* EDPSE by 8.8 %.  The study re-prices cached simulations; no new
simulation is needed for the energy axis (bandwidth changes do re-simulate).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.energy_model import EnergyParams
from repro.experiments.render import render_table
from repro.experiments.runner import SweepRunner
from repro.experiments.study import run_scaling_study, scaling_configs
from repro.gpu.config import BandwidthSetting, IntegrationDomain
from repro.workloads.suite import SCALING_SUBSET

PAPER_MAX_EDPSE_IMPACT = 1.0          # percent, at 4x link energy
PAPER_EDPSE_GAIN_TRADEOFF = 8.8       # percent, 2x BW at 4x energy/bit

BASE_PJ_PER_BIT = 10.0


@dataclass
class InterconnectEnergyResult:
    edpse_by_multiplier: dict[float, float]   # link-energy multiplier -> EDPSE
    edpse_tradeoff: float                     # 2x BW at 4x energy/bit

    def render(self) -> str:
        """Render this result as the paper-style ASCII table."""
        base = self.edpse_by_multiplier[1.0]
        rows = []
        for multiplier, edpse in sorted(self.edpse_by_multiplier.items()):
            rows.append(
                [
                    f"{multiplier:g}x ({multiplier * BASE_PJ_PER_BIT:g} pJ/b)",
                    edpse,
                    (edpse - base) / base * 100.0,
                ]
            )
        rows.append(
            [
                "2x-BW @ 4x pJ/b",
                self.edpse_tradeoff,
                (self.edpse_tradeoff - base) / base * 100.0,
            ]
        )
        return render_table(
            "Section V-C: 32-GPM EDPSE vs interconnect energy (1x-BW on-board)",
            ["link energy", "EDPSE (%)", "vs baseline (%)"],
            rows,
            note=(
                "Paper shape: 4x link energy moves EDPSE <1%; spending 4x"
                " energy/bit to double bandwidth *raises* EDPSE ~8.8%."
            ),
        )


def run(
    runner: SweepRunner | None = None,
    workload_abbrs: tuple[str, ...] = SCALING_SUBSET,
    spec_for=None,
) -> InterconnectEnergyResult:
    """Execute (or fetch from cache) the link-energy point study."""
    runner = runner or SweepRunner()
    configs = scaling_configs(
        BandwidthSetting.BW_1X, domain=IntegrationDomain.ON_BOARD, counts=(32,)
    )

    edpse_by_multiplier = {}
    for multiplier in (1.0, 2.0, 4.0):
        def params_for(config, _multiplier=multiplier):
            params = EnergyParams.for_config(config)
            if config.num_gpms == 1:
                return params
            return params.with_link_energy(BASE_PJ_PER_BIT * _multiplier)

        study = run_scaling_study(
            runner, configs, label=f"link-energy-{multiplier}x",
            params_for=params_for,
            workload_abbrs=workload_abbrs, spec_for=spec_for,
        )
        edpse_by_multiplier[multiplier] = study.mean_edpse(32)

    # The trade-off point: double the bandwidth, at 4x the energy per bit.
    tradeoff_configs = scaling_configs(
        BandwidthSetting.BW_2X, domain=IntegrationDomain.ON_BOARD, counts=(32,)
    )

    def tradeoff_params(config):
        params = EnergyParams.for_config(config)
        if config.num_gpms == 1:
            return params
        return params.with_link_energy(BASE_PJ_PER_BIT * 4.0)

    tradeoff = run_scaling_study(
        runner, tradeoff_configs, label="2xBW@4xE",
        params_for=tradeoff_params,
        workload_abbrs=workload_abbrs, spec_for=spec_for,
    )
    return InterconnectEnergyResult(
        edpse_by_multiplier=edpse_by_multiplier,
        edpse_tradeoff=tradeoff.mean_edpse(32),
    )
