"""Extension study: on-package topology — ring vs 2D torus vs switch.

Figure 9 compares ring and switch *on-board*.  On-package, the paper argues
planar substrates favor multi-hop neighbor topologies over switch chips
(Section II); the natural question it leaves open is how much a richer planar
topology recovers.  This study compares, at the on-package 2x-BW setting:

* the paper's **ring** (two neighbor links of B/2 each; ~N/4 average hops),
* a **2D torus** (four neighbor links of B/4 each; ~sqrt(N)/2 average hops),
* an idealized on-package **switch** (full-B ports, 2 hops, +10 pJ/bit).

Expected shape: at 8 GPMs the ring and torus tie (hops are short either
way); at 32 GPMs the torus recovers a large part of the switch's advantage
while staying planar — topology innovation as a third lever next to raw
bandwidth (Fig. 8) and integration domain (amortization).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.render import render_table
from repro.experiments.runner import SweepRunner
from repro.experiments.study import StudyResult, run_scaling_study, scaling_configs
from repro.gpu.config import BandwidthSetting, IntegrationDomain, TopologyKind
from repro.workloads.suite import SCALING_SUBSET

COUNTS = (8, 32)

SERIES: tuple[tuple[str, TopologyKind], ...] = (
    ("Ring", TopologyKind.RING),
    ("2D torus", TopologyKind.MESH),
    ("Switch", TopologyKind.SWITCH),
)


@dataclass
class TopologyResult:
    studies: dict[str, StudyResult]

    def edpse(self, label: str, n: int) -> float:
        """Mean EDPSE (%) for one topology at n GPMs."""
        return self.studies[label].mean_edpse(n)

    def render(self) -> str:
        """Render this result as the paper-style ASCII table."""
        headers = ["topology"] + [f"{n}-GPM" for n in COUNTS]
        rows = [
            [label] + [self.edpse(label, n) for n in COUNTS]
            for label, _kind in SERIES
        ]
        return render_table(
            "Extension: on-package topology at 2x-BW — EDPSE (%)",
            headers,
            rows,
            note=(
                "The torus halves the ring's average hop count while staying"
                " planar; at 32 GPMs it recovers much of the switch's"
                " advantage without a switch chip's packaging cost."
            ),
        )


def run(
    runner: SweepRunner | None = None,
    workload_abbrs: tuple[str, ...] = SCALING_SUBSET,
    spec_for=None,
) -> TopologyResult:
    """Execute (or fetch from cache) the topology comparison."""
    runner = runner or SweepRunner()
    studies = {}
    for label, kind in SERIES:
        configs = scaling_configs(
            BandwidthSetting.BW_2X,
            domain=IntegrationDomain.ON_PACKAGE,
            topology=kind,
            counts=COUNTS,
        )
        studies[label] = run_scaling_study(
            runner, configs, label=label,
            workload_abbrs=workload_abbrs, spec_for=spec_for,
        )
    return TopologyResult(studies=studies)
