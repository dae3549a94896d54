"""Shared scaffolding for the multi-module scaling experiments.

A *scaling study* is: simulate the 14-workload subset on the 1-GPM baseline
plus a set of scaled configurations, price every run with the configuration's
energy parameters, and summarize per-workload/per-category EDPSE, speedup,
and normalized energy.  Every figure module composes this scaffolding with
its own configuration axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.edpse import ScalingPoint
from repro.core.energy_model import EnergyParams
from repro.errors import ExperimentError
from repro.experiments.runner import SweepRunner
from repro.gpu.config import (
    BandwidthSetting,
    GpuConfig,
    IntegrationDomain,
    TopologyKind,
    table_iii_config,
)
from repro.isa.kernel import WorkloadCategory
from repro.units import geomean, mean
from repro.workloads.suite import SCALING_SUBSET, WORKLOAD_SPECS

#: Scaled GPM counts reported by the figures (the baseline 1-GPM is implicit).
SCALED_GPM_COUNTS: tuple[int, ...] = (2, 4, 8, 16, 32)


@dataclass
class WorkloadScaling:
    """One workload's baseline plus scaled observations under one pricing."""

    workload: str
    category: WorkloadCategory
    baseline: ScalingPoint
    scaled: dict[int, ScalingPoint] = field(default_factory=dict)

    def edpse(self, n: int) -> float:
        """EDPSE (%) at n GPMs vs this workload's 1-GPM baseline."""
        return self.scaled[n].edpse_over(self.baseline)

    def speedup(self, n: int) -> float:
        """Speedup at n GPMs over the baseline."""
        return self.scaled[n].speedup_over(self.baseline)

    def energy_ratio(self, n: int) -> float:
        """Energy at n GPMs normalized to the baseline."""
        return self.scaled[n].energy_ratio_over(self.baseline)


@dataclass
class StudyResult:
    """All workloads' scaling observations for one configuration axis value."""

    label: str
    workloads: dict[str, WorkloadScaling]

    def _subset(self, category: WorkloadCategory | None) -> list[WorkloadScaling]:
        selected = [
            scaling
            for scaling in self.workloads.values()
            if category is None or scaling.category is category
        ]
        if not selected:
            raise ExperimentError(f"no workloads in category {category!r}")
        return selected

    def mean_edpse(self, n: int, category: WorkloadCategory | None = None) -> float:
        """Arithmetic-mean EDPSE (%) over a category (None = all)."""
        return mean(w.edpse(n) for w in self._subset(category))

    def geomean_speedup(self, n: int, category: WorkloadCategory | None = None) -> float:
        """Geometric-mean speedup over a category (None = all)."""
        return geomean(w.speedup(n) for w in self._subset(category))

    def mean_energy_ratio(
        self, n: int, category: WorkloadCategory | None = None
    ) -> float:
        """Arithmetic-mean normalized energy over a category (None = all)."""
        return mean(w.energy_ratio(n) for w in self._subset(category))

    @property
    def scaled_counts(self) -> tuple[int, ...]:
        """The GPM counts this study actually scaled to, ascending.

        Figure renderers iterate this instead of the module-level
        :data:`SCALED_GPM_COUNTS`, so reduced (``--quick``) grids render
        without KeyErrors.
        """
        counts: set[int] = set()
        for scaling in self.workloads.values():
            counts.update(scaling.scaled)
        return tuple(sorted(counts))


def scaling_configs(
    bandwidth: BandwidthSetting,
    domain: IntegrationDomain | None = None,
    topology: TopologyKind = TopologyKind.RING,
    counts: tuple[int, ...] = SCALED_GPM_COUNTS,
) -> dict[int, GpuConfig]:
    """Table III configs for one bandwidth/domain/topology axis value."""
    return {
        n: table_iii_config(n, bandwidth, domain=domain, topology=topology)
        for n in counts
    }


def baseline_config() -> GpuConfig:
    """The 1-GPM reference every EDPSE number is computed against."""
    return table_iii_config(1, BandwidthSetting.BW_2X)


def run_scaling_study(
    runner: SweepRunner,
    configs: dict[int, GpuConfig],
    label: str,
    params_for: "callable | None" = None,
    workload_abbrs: tuple[str, ...] = SCALING_SUBSET,
    spec_for: "callable | None" = None,
) -> StudyResult:
    """Simulate the workload subset on a baseline + scaled configs and price it.

    Args:
        runner: sweep executor (provides caching/parallelism).
        configs: scaled configurations keyed by GPM count.
        label: name for the study axis value (used in reports).
        params_for: optional ``f(config) -> EnergyParams`` override; defaults
            to :meth:`EnergyParams.for_config` (the §V-C point studies pass
            re-pricing functions here).
        workload_abbrs: which Table II workloads to include.
        spec_for: optional ``f(abbr) -> WorkloadSpec`` override; the quick
            figure tier passes shrunken specs here so a reduced study keeps
            the full study's structure (and cache-key discipline) at a
            fraction of the engine time.
    """
    if params_for is None:
        params_for = EnergyParams.for_config
    if spec_for is None:
        spec_for = WORKLOAD_SPECS.__getitem__
    base_config = baseline_config()
    specs = [spec_for(abbr) for abbr in workload_abbrs]
    all_configs = [base_config] + [configs[n] for n in sorted(configs)]
    grid = runner.run_grid(specs, all_configs)

    base_params = params_for(base_config)
    workloads: dict[str, WorkloadScaling] = {}
    base_records = grid[base_config.label()]
    for abbr, spec in zip(workload_abbrs, specs):
        record = base_records[spec.abbr]
        workloads[abbr] = WorkloadScaling(
            workload=abbr,
            category=spec.category,
            baseline=record.scaling_point(base_params),
        )
    for n in sorted(configs):
        config = configs[n]
        params = params_for(config)
        for abbr in workload_abbrs:
            record = grid[config.label()][abbr]
            workloads[abbr].scaled[n] = record.scaling_point(params)
    return StudyResult(label=label, workloads=workloads)


