"""Extension study: power-gating idle GPMs (Section V-E).

The paper's discussion names "intelligent clock-gating and power-gating" as
system-level techniques that must accompany multi-module scaling, because at
high GPM counts SM idle time exposes the constant/idle energy.  This study
re-prices the 32-GPM on-board design (the worst case, 1x-BW ring) under
gating of increasing aggression:

* **stall gating** removes a fraction of the idle-pipeline (EPStall) energy —
  clock gating the issue/datapath while a warp waits on remote memory;
* **constant gating** additionally shaves the same fraction off the
  *incremental* per-GPM constant power (sleep states for whole GPMs while
  they sit starved).

Pure re-pricing: no re-simulation (gating is assumed to add no wake latency —
an optimistic upper bound, stated in the rendered note).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.energy_model import EnergyParams
from repro.experiments.render import render_table
from repro.experiments.runner import SweepRunner
from repro.experiments.study import run_scaling_study, scaling_configs
from repro.gpu.config import BandwidthSetting, IntegrationDomain
from repro.workloads.suite import SCALING_SUBSET

EFFECTIVENESS = (0.0, 0.5, 0.9)


@dataclass
class PowerGateResult:
    #: (stall gating, constant gating) -> (mean energy ratio, mean EDPSE %)
    by_setting: dict[tuple[float, bool], tuple[float, float]]

    def render(self) -> str:
        """Render this result as the paper-style ASCII table."""
        rows = []
        for (effectiveness, gate_constant), (energy, edpse) in sorted(
            self.by_setting.items()
        ):
            label = (
                "none" if effectiveness == 0.0
                else f"{effectiveness:.0%} stall"
                + (" + GPM sleep" if gate_constant else "")
            )
            rows.append([label, energy, edpse])
        return render_table(
            "Extension: power gating at 32-GPM (1x-BW on-board ring)",
            ["gating", "energy (norm.)", "EDPSE (%)"],
            rows,
            note=(
                "Upper bound: gating is priced with zero wake latency."
                " Gating attacks the symptom (exposed idle energy);"
                " bandwidth attacks the cause (the idling itself) —"
                " compare against Figure 8."
            ),
        )


def run(
    runner: SweepRunner | None = None,
    workload_abbrs: tuple[str, ...] = SCALING_SUBSET,
    spec_for=None,
) -> PowerGateResult:
    """Execute (or fetch from cache) the power-gating study."""
    runner = runner or SweepRunner()
    configs = scaling_configs(
        BandwidthSetting.BW_1X, domain=IntegrationDomain.ON_BOARD, counts=(32,)
    )
    by_setting: dict[tuple[float, bool], tuple[float, float]] = {}
    for effectiveness in EFFECTIVENESS:
        for gate_constant in (False, True):
            if effectiveness == 0.0 and gate_constant:
                continue

            def params_for(config, _eff=effectiveness, _const=gate_constant):
                params = EnergyParams.for_config(config)
                if config.num_gpms == 1:
                    return params
                constants = dataclasses.replace(
                    params.constants,
                    ep_stall_nj=params.constants.ep_stall_nj * (1.0 - _eff),
                )
                growth = params.constant_growth_per_gpm
                if _const:
                    growth = growth * (1.0 - _eff)
                return dataclasses.replace(
                    params,
                    constants=constants,
                    constant_growth_per_gpm=growth,
                )

            study = run_scaling_study(
                runner,
                configs,
                label=f"gating-{effectiveness}-{gate_constant}",
                params_for=params_for,
                workload_abbrs=workload_abbrs, spec_for=spec_for,
            )
            by_setting[(effectiveness, gate_constant)] = (
                study.mean_energy_ratio(32),
                study.mean_edpse(32),
            )
    return PowerGateResult(by_setting=by_setting)
