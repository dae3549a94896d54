"""Extension study: inter-GPM link compression (Section V-E).

The paper's discussion argues data-compression techniques must be re-applied
*between* GPU modules.  This study makes that quantitative: on the
bandwidth-starved 32-GPM on-board design (1x-BW ring), payload compression
ratios of 1.5x and 2x are swept, charging 2 pJ per uncompressed byte of codec
energy and 8 cycles of codec latency per message.

Expected shape (and the paper's §V-C logic transplanted): every wire byte
removed from the ring is worth ~hops x 10 pJ of link energy *and* scarce
bandwidth, so even an expensive codec pays for itself — compression behaves
like a bandwidth upgrade, which Figure 8 showed is the dominant lever.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.experiments.render import render_table
from repro.experiments.runner import SweepRunner
from repro.experiments.study import run_scaling_study, scaling_configs
from repro.gpu.config import BandwidthSetting, IntegrationDomain
from repro.interconnect.compression import CompressionConfig
from repro.workloads.suite import SCALING_SUBSET

RATIOS = (1.0, 1.5, 2.0)


@dataclass
class CompressionResult:
    #: ratio -> (geomean speedup vs 1-GPM, mean energy ratio, mean EDPSE %)
    by_ratio: dict[float, tuple[float, float, float]]

    def render(self) -> str:
        """Render this result as the paper-style ASCII table."""
        rows = []
        base_speedup, base_energy, base_edpse = self.by_ratio[1.0]
        for ratio in sorted(self.by_ratio):
            speedup, energy, edpse = self.by_ratio[ratio]
            rows.append(
                [
                    "off" if ratio == 1.0 else f"{ratio:g}x",
                    speedup,
                    energy,
                    edpse,
                    (edpse - base_edpse) / base_edpse * 100.0,
                ]
            )
        return render_table(
            "Extension: link compression at 32-GPM (1x-BW on-board ring)",
            ["compression", "speedup", "energy (norm.)", "EDPSE (%)",
             "EDPSE gain (%)"],
            rows,
            note=(
                "Compression acts as a bandwidth upgrade on the starved ring:"
                " per §V-C logic, the codec energy is a rounding error next"
                " to the idle-time it removes."
            ),
        )


def run(
    runner: SweepRunner | None = None,
    workload_abbrs: tuple[str, ...] = SCALING_SUBSET,
    spec_for=None,
) -> CompressionResult:
    """Execute (or fetch from cache) the compression extension study."""
    runner = runner or SweepRunner()
    by_ratio: dict[float, tuple[float, float, float]] = {}
    for ratio in RATIOS:
        configs = scaling_configs(
            BandwidthSetting.BW_1X, domain=IntegrationDomain.ON_BOARD,
            counts=(32,),
        )
        if ratio > 1.0:
            configs = {
                n: dataclasses.replace(
                    config,
                    compression=CompressionConfig(data_ratio=ratio),
                    name=f"{config.label()}/comp{ratio:g}x",
                )
                for n, config in configs.items()
            }
        study = run_scaling_study(
            runner, configs, label=f"compression-{ratio:g}x",
            workload_abbrs=workload_abbrs, spec_for=spec_for,
        )
        by_ratio[ratio] = (
            study.geomean_speedup(32),
            study.mean_energy_ratio(32),
            study.mean_edpse(32),
        )
    return CompressionResult(by_ratio=by_ratio)
