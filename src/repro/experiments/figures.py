"""One registry for every study, and one command to run it (``repro figures``).

Each study module already knows how to *run*; what kept going stale was
the glue: EXPERIMENTS.md cited result files nobody regenerated, and the
committed logs drifted from the code that allegedly produced them.  This
harness makes the study outputs a build artifact:

* ``run_figures()`` executes every registered study end-to-end and writes
  two files per study into ``results/<study>/`` — the full rendered tables
  (``log.txt``) and a few headline numbers next to their paper targets
  (``summary.txt``).  The paper figures' and the idle study's are
  committed; regenerating them is one command, so anyone can diff code
  against its own evidence.
* ``--quick`` swaps in the smoke tier: shrunken workloads on a reduced
  grid, written to ``quick.txt``/``quick_summary.txt`` (gitignored, so CI
  never clobbers the committed full-tier logs).  Quick outputs are fully
  deterministic — the smoke test runs the tier twice and asserts the bytes
  match.
* Each study's paper claims (``claims``) are checked whenever it runs on
  the grid they were written for: a full-tier run therefore fails, after
  every log is written, on any broken claim.

:data:`FIGURES` is the only table of studies: one entry per study module
under ``repro.experiments``, keyed by module name.  Modules are imported
when a study runs, not when this registry is imported, so the registry
stays cheap to load.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from repro.errors import ExperimentError
from repro.experiments.runner import SweepRunner
from repro.gpu.config import BandwidthSetting
from repro.workloads.suite import shrunken_spec

#: The reduced grid the ``--quick`` tier sweeps (vs the paper's 2..32).
QUICK_COUNTS: tuple[int, ...] = (2, 4)

#: One memory-intensive and one compute-intensive workload, so category
#: means stay well-defined on the quick tier.
QUICK_WORKLOADS: tuple[str, ...] = ("Stream", "BPROP")


def _quick_spec(abbr: str):
    """Shrunken stand-in keeping the namesake's locality character."""
    return shrunken_spec(abbr, total_ctas=32, kernels=2)


#: Quick-tier overrides for every study over Table II workloads.
_QUICK_SUBSET = {"workload_abbrs": QUICK_WORKLOADS, "spec_for": _quick_spec}

#: ...plus the reduced GPM grid, for the scaling-study figures.
_QUICK_SCALING = {**_QUICK_SUBSET, "counts": QUICK_COUNTS}


@dataclass(frozen=True)
class FigureJob:
    """One regenerable study: how to run it and how to summarize it."""

    #: Module name under ``repro.experiments``; doubles as the
    #: ``results/<name>/`` directory.
    name: str
    #: One-line description written at the top of both output files.
    title: str
    #: ``f(module, result) -> str`` extracting the headline numbers.
    summarize: Callable
    #: Keyword overrides ``module.run`` takes on the ``--quick`` tier.
    quick: dict = field(default_factory=dict)
    #: Whether ``module.run`` accepts the roofline screen knobs.
    takes_screen: bool = False
    #: ``f(module, result) -> [(text, holds), ...]``: the paper's shape
    #: claims, one line of text each.
    claims: Callable | None = None

    def build(
        self, runner: SweepRunner, quick: bool, screen: dict | None = None
    ) -> tuple[str, str, list[str]]:
        """Run the study; return (log, summary, failed claim texts).

        Claims are checked only on the grid they were written for: an
        unscreened run on the full tier, or with no quick overrides.
        """
        module = importlib.import_module(f"{__package__}.{self.name}")
        result = module.run(
            runner, **(self.quick if quick else {}), **(screen or {})
        )
        failed = []
        if self.claims is not None and not screen and not (
            quick and self.quick
        ):
            failed = [
                text for text, holds in self.claims(module, result)
                if not holds
            ]
        tier = "quick (smoke) tier" if quick else "full tier"
        if screen:
            tier += (
                f", {screen['screen']} screen top-{screen['top_k']}"
                f" + {screen['guard']} guard"
            )
        banner = f"{self.name}: {self.title} [{tier}]"
        log = banner + "\n\n" + result.render() + "\n"
        summary = banner + "\n" + self.summarize(module, result) + "\n"
        return log, summary, failed


#: Every regenerable study, in DESIGN.md's experiment-index order (paper
#: tables and figures, then the extensions): the order of the
#: registrations below.  The directory under ``results/`` is the key.
FIGURES: dict[str, FigureJob] = {}


def _study(
    name: str, title: str, quick: dict | None = None, takes_screen=False
):
    """Register the decorated summary as study ``name``'s job."""

    def register(summarize: Callable) -> Callable:
        FIGURES[name] = FigureJob(
            name, title, summarize, quick or {}, takes_screen
        )
        return summarize

    return register


def _claims(name: str):
    """Attach the decorated paper-claim checks to study ``name``."""

    def register(claims: Callable) -> Callable:
        FIGURES[name] = replace(FIGURES[name], claims=claims)
        return claims

    return register


def _verdict(label: str, race: float, op: str, incumbent: float) -> str:
    """One measured governor direction with its holds/DOES NOT HOLD mark."""
    holds = race > incumbent if op == ">" else race < incumbent
    return (
        f"{label} (race-to-idle {race:.1f}% {op}"
        f" utilization {incumbent:.1f}%):"
        f" {'holds' if holds else 'DOES NOT HOLD'}"
    )


@_study("table1b_epi_ept", "EPI/EPT calibration against silicon (Table Ib)")
def _summ_table1b(m, result) -> str:
    model, silicon = result.model, result.silicon
    errors = [
        abs(model.epi_nj[op] / silicon.true_epi_nj(op) - 1.0)
        for op in m.TABLE_1B_COMPUTE_OPCODES
    ] + [
        abs(model.ept_nj[kind] / silicon.true_ept_nj(kind) - 1.0)
        for kind in m.TransactionKind
    ]
    return (
        f"max calibrated-vs-silicon error: {max(errors) * 100:.2f}%"
        f" over {len(errors)} EPI/EPT entries (bench bar: <5%)"
    )


@_claims("table1b_epi_ept")
def _claims_table1b(m, result) -> list[tuple[str, bool]]:
    model, silicon = result.model, result.silicon
    error = lambda value, truth: abs(value - truth) / truth
    return [
        (f"calibrated {op.name} EPI within 5% of silicon",
         error(model.epi_nj[op], silicon.true_epi_nj(op)) < 0.05)
        for op in m.TABLE_1B_COMPUTE_OPCODES
    ] + [
        (f"calibrated {kind.name} EPT within 5% of silicon",
         error(model.ept_nj[kind], silicon.true_ept_nj(kind)) < 0.05)
        for kind in m.TransactionKind
    ] + [
        (f"calibrated {op.name} EPI within 30% of the paper's Table Ib",
         error(model.epi_nj[op], m.EPI_TABLE_NJ[op]) < 0.30)
        for op in m.TABLE_1B_COMPUTE_OPCODES
    ]


@_study(
    "fig2_energy_scaling",
    "energy cost of strong scaling (on-board, 1x-BW)",
    _QUICK_SCALING,
)
def _summ_fig2(m, result) -> str:
    top = result.rows[-1]
    return (
        f"mean normalized energy at {top.num_gpms}x capability:"
        f" {top.values['energy']:.2f}x (ideal 1.0x; paper:"
        f" ~{m.PAPER_ENERGY_AT_32X:.1f}x at 32x)"
    )


@_claims("fig2_energy_scaling")
def _claims_fig2(m, result) -> list[tuple[str, bool]]:
    energy = {row.num_gpms: row.values["energy"] for row in result.rows}
    series = [energy[n] for n in (2, 4, 8, 16, 32)]
    return [
        ("energy rises monotonically with capability",
         series == sorted(series)),
        ("2-GPM energy below 1.4x", energy[2] < 1.4),
        ("32-GPM energy in the ~2x regime (1.5x-3.2x)",
         1.5 < energy[32] < 3.2),
    ]


@_study(
    "fig4_validation",
    "GPUJoule validation against silicon (4a + 4b)",
    _QUICK_SUBSET,
)
def _summ_fig4(m, result) -> str:
    outliers = ", ".join(sorted(result.fig4b.outliers(25.0))) or "none"
    return (
        f"Fig 4b mean |error|: {result.fig4b.mean_absolute_error:.1f}%"
        f" (paper: {m.PAPER_MEAN_ABS_ERROR}%)\n"
        f"outliers >25%: {outliers}"
        f" (paper >30%: {', '.join(m.PAPER_OUTLIERS)})"
    )


@_claims("fig4_validation")
def _claims_fig4(m, result) -> list[tuple[str, bool]]:
    report = result.fig4b
    outliers = report.outliers(threshold_percent=25.0)
    return [
        ("Fig 4a refined errors within -8%..+4%",
         result.fig4a.within(-8.0, 4.0)),
        ("Fig 4a refined mean |error| below 6%",
         result.fig4a.mean_absolute_error < 6.0),
        ("Fig 4a naive mean |error| above 10%",
         result.fig4a_naive.mean_absolute_error > 10.0),
        ("Fig 4b covers all 18 applications", len(report.cases) == 18),
        ("Fig 4b mean |error| below 18%", report.mean_absolute_error < 18.0),
    ] + [
        (f"Fig 4b {name} is a >25% outlier", name in outliers)
        for name in m.PAPER_OUTLIERS
    ] + [
        ("Fig 4b sensor-resolution outliers (BFS, MiniAMR) over-estimate",
         report.cases["BFS"] > 0 and report.cases["MiniAMR"] > 0),
        ("Fig 4b low-utilization outliers (RSBench, CoMD) under-estimate",
         report.cases["RSBench"] < 0 and report.cases["CoMD"] < 0),
    ]


@_study(
    "fig6_edpse_onpackage",
    "EDPSE vs GPM count (on-package, 2x-BW)",
    _QUICK_SCALING,
)
def _summ_fig6(m, result) -> str:
    first, last = result.rows[0], result.rows[-1]
    return (
        f"mean EDPSE: {first.values['all']:.1f}% at {first.num_gpms}-GPM,"
        f" {last.values['all']:.1f}% at {last.num_gpms}-GPM"
        f" (paper: peak {m.PAPER_MAX_MEAN_EDPSE:.0f}%,"
        f" {m.PAPER_MEAN_EDPSE_32GPM:.0f}% at 32-GPM)"
    )


@_claims("fig6_edpse_onpackage")
def _claims_fig6(m, result) -> list[tuple[str, bool]]:
    by_count = {row.num_gpms: row.values for row in result.rows}
    means = [by_count[n]["all"] for n in (2, 4, 8, 16, 32)]
    return [
        ("compute-intensive EDPSE above 100% at 2-GPM",
         by_count[2]["compute"] > 100.0),
    ] + [
        (f"memory-intensive EDPSE below compute-intensive at {n}-GPM",
         values["memory"] < values["compute"])
        for n, values in by_count.items()
    ] + [
        ("mean EDPSE declines monotonically with GPM count",
         means == sorted(means, reverse=True)),
        ("2-GPM mean EDPSE above 80%", means[0] > 80.0),
        ("16-GPM mean EDPSE above the 50% bar",
         by_count[16]["all"] > m.PAPER_THRESHOLD),
        ("32-GPM mean EDPSE below the 50% bar",
         by_count[32]["all"] < m.PAPER_THRESHOLD),
        ("32-GPM mean EDPSE in the collapse regime (20%-55%)",
         20.0 < by_count[32]["all"] < 55.0),
    ]


@_study(
    "fig7_incremental",
    "incremental speedup and energy growth per doubling",
    _QUICK_SCALING,
)
def _summ_fig7(m, result) -> str:
    first, last = result.steps[0], result.steps[-1]
    return (
        f"incremental speedup: {first.incremental_speedup:.3f}x at first"
        f" doubling, {last.incremental_speedup:.3f}x at the last"
        f" (paper: 1.868x -> 1.47x)\n"
        f"monolithic last-doubling speedup:"
        f" {result.monolithic_16_to_32:.2f}x (paper: 1.81x)"
    )


@_claims("fig7_incremental")
def _claims_fig7(m, result) -> list[tuple[str, bool]]:
    steps = {step.num_gpms: step for step in result.steps}
    first, last = steps[2], steps[32]
    growth = last.component_increase_percent
    return [
        ("first doubling speedup above 1.6x",
         first.incremental_speedup > 1.6),
        ("16->32 speedup below the first doubling's",
         last.incremental_speedup < first.incremental_speedup),
        ("16->32 speedup above 0.95x", last.incremental_speedup > 0.95),
        ("monolithic 16->32 speedup beats the multi-GPM one",
         result.monolithic_16_to_32 > last.incremental_speedup),
        ("16->32 constant energy grows more than SM-busy energy",
         growth["constant"] > growth["sm_busy"]),
        ("16->32 constant energy grows more than DRAM-to-L2 energy",
         growth["constant"] > growth["dram_to_l2"]),
        ("16->32 total energy increase within 0%-45%",
         0.0 < last.energy_increase_percent < 45.0),
    ]


@_study(
    "fig8_bandwidth", "EDPSE vs inter-GPM bandwidth (1x/2x/4x)", _QUICK_SCALING
)
def _summ_fig8(m, result) -> str:
    top = result.studies[m.BANDWIDTH_ORDER[0]].scaled_counts[-1]
    gain = result.edpse(BandwidthSetting.BW_4X, top) / result.edpse(
        BandwidthSetting.BW_1X, top
    )
    return (
        f"4x-BW / 1x-BW EDPSE gain at {top}-GPM: {gain:.2f}x"
        " (paper: ~3x)"
    )


@_claims("fig8_bandwidth")
def _claims_fig8(m, result) -> list[tuple[str, bool]]:
    bw1, bw2, bw4 = (
        BandwidthSetting.BW_1X, BandwidthSetting.BW_2X, BandwidthSetting.BW_4X
    )
    gain = lambda n: result.edpse(bw4, n) / result.edpse(bw1, n)
    return [
        (
            f"EDPSE monotone in bandwidth (within 1%) at {n}-GPM",
            result.edpse(bw1, n) <= result.edpse(bw2, n) * 1.01
            and result.edpse(bw2, n) <= result.edpse(bw4, n) * 1.01,
        )
        for n in (2, 4, 8, 16, 32)
    ] + [
        ("4x-BW / 1x-BW EDPSE gain at 32-GPM above 1.8x", gain(32) > 1.8),
        ("bandwidth gain larger at 32-GPM than at 2-GPM", gain(32) > gain(2)),
    ]


@_study("fig9_switch", "on-board ring vs high-radix switch", _QUICK_SCALING)
def _summ_fig9(m, result) -> str:
    top = result.studies[m.SERIES[0][0]].scaled_counts[-1]
    gain = (
        result.studies["Switch (1x-BW)"].mean_edpse(top)
        / result.studies["Ring (1x-BW)"].mean_edpse(top)
    )
    return (
        f"switch / ring EDPSE gain at {top}-GPM (same links):"
        f" {gain:.2f}x (paper: ~2x)"
    )


@_claims("fig9_switch")
def _claims_fig9(m, result) -> list[tuple[str, bool]]:
    ring_1x = result.studies["Ring (1x-BW)"]
    switch_1x = result.studies["Switch (1x-BW)"]
    switch_2x = result.studies["Switch (2x-BW)"]
    advantage = lambda n: switch_1x.mean_edpse(n) / ring_1x.mean_edpse(n)
    return [
        ("1x-BW switch EDPSE above 1.4x the ring's at 32-GPM",
         switch_1x.mean_edpse(32) > 1.4 * ring_1x.mean_edpse(32)),
        ("switch advantage larger at 32-GPM than at 4-GPM",
         advantage(32) > advantage(4)),
        ("2x-BW switch at least matches 1x-BW switch at 32-GPM",
         switch_2x.mean_edpse(32) >= switch_1x.mean_edpse(32)),
    ]


@_study(
    "fig10_speedup_energy",
    "speedup and normalized energy across the sweep",
    _QUICK_SCALING,
)
def _summ_fig10(m, result) -> str:
    top = result.studies[m.BANDWIDTH_ORDER[0]].scaled_counts[-1]
    reduction = (
        1.0
        - result.energy(BandwidthSetting.BW_4X, top)
        / result.energy(BandwidthSetting.BW_1X, top)
    ) * 100.0
    return (
        f"{top}-GPM energy reduction 1x->4x BW: {reduction:.1f}%"
        " (paper: 45% incl. amortization, 27.4% bandwidth alone)"
    )


@_claims("fig10_speedup_energy")
def _claims_fig10(m, result) -> list[tuple[str, bool]]:
    bw1, bw2, bw4 = (
        BandwidthSetting.BW_1X, BandwidthSetting.BW_2X, BandwidthSetting.BW_4X
    )
    reduction = 1.0 - result.energy(bw4, 32) / result.energy(bw1, 32)
    return [
        (
            f"speedup rises with bandwidth at {n}-GPM",
            result.speedup(bw1, n)
            < result.speedup(bw2, n)
            < result.speedup(bw4, n),
        )
        for n in (8, 16, 32)
    ] + [
        ("16-GPM/2x-BW outruns 32-GPM/1x-BW",
         result.speedup(bw2, 16) > result.speedup(bw1, 32)),
        ("16-GPM/2x-BW energy below 0.75x of 32-GPM/1x-BW",
         result.energy(bw2, 16) < 0.75 * result.energy(bw1, 32)),
        ("32-GPM energy reduction 1x->4x BW above 25%", reduction > 0.25),
    ]


@_study(
    "interconnect_energy_study",
    "Section V-C: 32-GPM EDPSE vs link energy per bit",
    _QUICK_SUBSET,
)
def _summ_interconnect(m, result) -> str:
    base = result.edpse_by_multiplier[1.0]
    impact = (result.edpse_by_multiplier[4.0] / base - 1.0) * 100.0
    tradeoff = (result.edpse_tradeoff / base - 1.0) * 100.0
    return (
        f"4x link energy: EDPSE {impact:+.2f}%"
        f" (paper: under {m.PAPER_MAX_EDPSE_IMPACT:g}%); 2x-BW at 4x pJ/b:"
        f" {tradeoff:+.1f}% (paper: +{m.PAPER_EDPSE_GAIN_TRADEOFF:g}%)"
    )


@_claims("interconnect_energy_study")
def _claims_interconnect(m, result) -> list[tuple[str, bool]]:
    by_multiplier = result.edpse_by_multiplier
    base, worst = by_multiplier[1.0], by_multiplier[4.0]
    impact = abs(worst - base) / base * 100.0
    tradeoff = (result.edpse_tradeoff - base) / base * 100.0
    return [
        ("4x link energy moves EDPSE by under 6%", impact < 6.0),
        ("EDPSE does not rise at 2x link energy", by_multiplier[2.0] <= base),
        ("EDPSE does not rise from 2x to 4x link energy",
         worst <= by_multiplier[2.0]),
        ("2x-BW at 4x pJ/b raises EDPSE by over 4%", tradeoff > 4.0),
        ("the bandwidth gain outweighs the link-energy cost",
         tradeoff > impact),
    ]


@_study(
    "amortization_study",
    "Section V-C: constant-energy amortization at 32-GPM",
    _QUICK_SUBSET,
)
def _summ_amortization(m, result) -> str:
    base_energy, base_edpse = result.by_rate[0.0]
    energy, edpse = result.by_rate[0.5]
    return (
        f"50% amortized: energy {(energy / base_energy - 1.0) * 100:+.1f}%"
        f" (paper: -{m.PAPER_ENERGY_SAVING_50}%), EDPSE"
        f" {(edpse / base_edpse - 1.0) * 100:+.1f}%"
        f" (paper: +{m.PAPER_EDPSE_GAIN_50}%)"
    )


@_claims("amortization_study")
def _claims_amortization(m, result) -> list[tuple[str, bool]]:
    energy_0, edpse_0 = result.by_rate[0.0]
    energy_25, edpse_25 = result.by_rate[0.25]
    energy_50, edpse_50 = result.by_rate[0.5]
    saving_50 = (1.0 - energy_50 / energy_0) * 100.0
    saving_25 = (1.0 - energy_25 / energy_0) * 100.0
    return [
        ("energy falls as amortization rises",
         energy_50 < energy_25 < energy_0),
        ("EDPSE rises as amortization rises", edpse_50 > edpse_25 > edpse_0),
        ("50% amortization saves 15%-35% energy", 15.0 < saving_50 < 35.0),
        ("25% amortization saves 7%-20% energy", 7.0 < saving_25 < 20.0),
        ("25% amortization saves about half the 50% saving (within 4 pts)",
         abs(saving_25 - saving_50 / 2) < 4.0),
    ]


@_study(
    "headline",
    "Section VII headline: fixing 32-GPM energy efficiency",
    _QUICK_SUBSET,
)
def _summ_headline(m, result) -> str:
    return (
        f"32-GPM energy saving: {result.total_saving_percent:.1f}%"
        f" (paper: {m.PAPER_TOTAL_SAVING:g}%), speedup"
        f" {result.speedup_onpackage_4x:.1f}x"
        f" (paper: ~{m.PAPER_FINAL_SPEEDUP:g}x)"
    )


@_claims("headline")
def _claims_headline(m, result) -> list[tuple[str, bool]]:
    return [
        ("32-GPM on-board energy in the ~2x regime (1.5x-3.2x)",
         1.5 < result.energy_onboard_1x < 3.2),
        ("4x bandwidth alone saves over 12% energy",
         result.bandwidth_only_saving_percent > 12.0),
        ("on-package amortization adds to the bandwidth saving",
         result.total_saving_percent > result.bandwidth_only_saving_percent),
        ("total 32-GPM energy saving above 30%",
         result.total_saving_percent > 30.0),
        ("fixed design speedup above 10x", result.speedup_onpackage_4x > 10.0),
        ("fixed design energy below 1.6x", result.energy_onpackage_4x < 1.6),
    ]


@_study("config_tables", "platform, application and configuration tables")
def _summ_config_tables(m, result) -> str:
    return (
        f"{len(m.WORKLOAD_SPECS)} workloads, GPM counts"
        f" {', '.join(map(str, m.TABLE_III_GPM_COUNTS))}"
    )


@_claims("config_tables")
def _claims_config_tables(m, result) -> list[tuple[str, bool]]:
    from repro.workloads.suite import SCALING_SUBSET

    return [
        ("Table II lists 18 applications", len(m.WORKLOAD_SPECS) == 18),
        ("Table II scaling subset has 14 applications",
         len(SCALING_SUBSET) == 14),
    ] + [
        (
            f"Table III {n}-GPM: {16 * n} SMs, {256 * n} GB/s DRAM",
            m.table_iii_config(n).total_sms == 16 * n
            and m.table_iii_config(n).total_dram_bandwidth_gbps == 256.0 * n,
        )
        for n in (1, 2, 4, 8, 16, 32)
    ] + [
        (
            f"Table IV {setting.value}: {gbps:g} GB/s per GPM",
            m.table_iv_interconnect(setting).per_gpm_bandwidth_gbps == gbps,
        )
        for setting, gbps in (
            (m.BandwidthSetting.BW_1X, 128.0),
            (m.BandwidthSetting.BW_2X, 256.0),
            (m.BandwidthSetting.BW_4X, 512.0),
        )
    ]


@_study(
    "compression_study",
    "extension: inter-GPM link compression at 32-GPM",
    _QUICK_SUBSET,
)
def _summ_compression(m, result) -> str:
    edpse = {ratio: row[2] for ratio, row in result.by_ratio.items()}
    return "32-GPM EDPSE by compression ratio: " + ", ".join(
        f"{ratio:g}x {value:.1f}%" for ratio, value in edpse.items()
    )


@_claims("compression_study")
def _claims_compression(m, result) -> list[tuple[str, bool]]:
    off, two_x = result.by_ratio[1.0], result.by_ratio[2.0]
    return [
        ("2x compression keeps speedup (within 2%)",
         two_x[0] >= off[0] * 0.98),
        ("2x compression keeps energy (within 2%)",
         two_x[1] <= off[1] * 1.02),
        ("2x compression raises EDPSE", two_x[2] > off[2]),
    ]


@_study(
    "locality_ablation",
    "ablation: first-touch placement and contiguous CTAs",
    _QUICK_SUBSET,
)
def _summ_locality(m, result) -> str:
    return "\n".join(
        f"{label}: remote fraction {remote:.2f}, slowdown {slowdown:.2f}x"
        for label, (remote, slowdown, _) in result.by_arm.items()
    )


@_claims("locality_ablation")
def _claims_locality(m, result) -> list[tuple[str, bool]]:
    baseline = result.by_arm["first-touch + contiguous"]
    striped = result.by_arm["striped placement"]
    scattered = result.by_arm["round-robin CTAs"]
    return [
        ("striping triples the remote fraction",
         striped[0] > 3 * baseline[0]),
        ("striping makes over half the traffic remote", striped[0] > 0.5),
        ("striping inflates time over 1.1x and energy over 1.05x",
         striped[1] > 1.1 and striped[2] > 1.05),
        ("round-robin CTAs raise the remote fraction 1.5x",
         scattered[0] > 1.5 * baseline[0]),
        ("round-robin CTAs inflate time and energy",
         scattered[1] > 1.0 and scattered[2] > 1.0),
    ]


@_study(
    "powergate_study",
    "extension: power-gating idle GPMs at 32-GPM",
    _QUICK_SUBSET,
)
def _summ_powergate(m, result) -> str:
    return "32-GPM EDPSE: " + ", ".join(
        f"{eff:.0%} stall{' + sleep' if sleep else ''} {edpse:.1f}%"
        for (eff, sleep), (_, edpse) in sorted(result.by_setting.items())
    )


@_claims("powergate_study")
def _claims_powergate(m, result) -> list[tuple[str, bool]]:
    none_energy, none_edpse = result.by_setting[(0.0, False)]
    stall_energy, stall_edpse = result.by_setting[(0.9, False)]
    sleep_energy, sleep_edpse = result.by_setting[(0.9, True)]
    return [
        ("90% stall gating lowers energy and raises EDPSE",
         stall_energy < none_energy and stall_edpse > none_edpse),
        ("adding sleep lowers energy and raises EDPSE further",
         sleep_energy < stall_energy and sleep_edpse > stall_edpse),
        ("gated EDPSE stays below 75%", sleep_edpse < 75.0),
    ]


@_study(
    "edip_study",
    "extension: parallel efficiency vs EDPSE vs ED2PSE",
    _QUICK_SUBSET,
)
def _summ_edip(m, result) -> str:
    top = m.SCALED_GPM_COUNTS[-1]
    return f"{top}-GPM ED^iPSE for i = 0, 1, 2: " + ", ".join(
        f"{result.metric(top, i):.1f}%" for i in (0, 1, 2)
    )


@_claims("edip_study")
def _claims_edip(m, result) -> list[tuple[str, bool]]:
    series = lambda i: [result.metric(n, i) for n in (2, 4, 8, 16, 32)]
    return [
        (
            f"ED2PSE at most EDPSE (within 1%) at {n}-GPM"
            " unless super-linear",
            result.metric(n, 2) <= result.metric(n, 1) * 1.01
            or result.metric(n, 0) > 100.0,
        )
        for n in (2, 8, 32)
    ] + [
        (
            f"ED^{i}PSE declines monotonically with GPM count",
            series(i) == sorted(series(i), reverse=True),
        )
        for i in (0, 1, 2)
    ]


@_study(
    "topology_study",
    "extension: on-package ring vs 2D torus vs switch",
    _QUICK_SUBSET,
)
def _summ_topology(m, result) -> str:
    top = m.COUNTS[-1]
    return f"{top}-GPM EDPSE: " + ", ".join(
        f"{label} {result.edpse(label, top):.1f}%" for label, _ in m.SERIES
    )


@_claims("topology_study")
def _claims_topology(m, result) -> list[tuple[str, bool]]:
    ring, torus, switch = (
        result.edpse(label, 32) for label in ("Ring", "2D torus", "Switch")
    )
    return [
        ("32-GPM torus beats the ring", torus > ring),
        ("32-GPM torus within 10% of the switch", switch >= torus * 0.9),
        ("torus recovers over 30% of the switch's gain over the ring",
         torus - ring > 0.3 * (switch - ring)),
    ]


@_study(
    "sweetspot_study",
    "EDPSE vs core frequency and per-workload sweet spots",
    {**_QUICK_SUBSET, "gpm_counts": (1, *QUICK_COUNTS)},
    takes_screen=True,
)
def _summ_sweetspot(m, result) -> str:
    top = max(result.spots)
    return f"EDP-optimal core clock at {top}-GPM: " + ", ".join(
        f"{abbr} {spot.point.frequency_hz / 1e6:.0f} MHz"
        for abbr, spot in sorted(result.spots[top].items())
    )


@_claims("sweetspot_study")
def _claims_sweetspot(m, result) -> list[tuple[str, bool]]:
    from repro.isa.kernel import WorkloadCategory

    counts = m.STUDY_GPM_COUNTS
    group = lambda category: [
        abbr for abbr in result.spots[1]
        if m.WORKLOAD_SPECS[abbr].category is category
    ]
    memory_bound = group(WorkloadCategory.MEMORY)
    compute_bound = group(WorkloadCategory.COMPUTE)
    mean_hz = lambda abbrs: sum(
        result.optimal_frequency_hz(abbr, counts[-1]) for abbr in abbrs
    ) / len(abbrs)
    return [
        ("1-GPM EDPSE at the anchor clock is 100%",
         abs(result.edpse[m.ANCHOR_FREQUENCY_HZ][1] - 100.0) < 1e-6),
        ("a memory-bound optimum sits below max clock at every GPM count",
         any(
             all(result.spot(abbr, n).below_max_clock for n in counts)
             for abbr in memory_bound
         )),
        (f"memory-bound optima at or below compute-bound at {counts[-1]}-GPM",
         mean_hz(memory_bound) <= mean_hz(compute_bound)),
    ]


@_study(
    "capping_study",
    "EDPSE vs chip power budget across GPM counts",
    {
        **_QUICK_SUBSET,
        "gpm_counts": (1, *QUICK_COUNTS),
        "fractions": (None, 0.85, 0.55),
    },
    takes_screen=True,
)
def _summ_capping(m, result) -> str:
    top = max(result.edpse[None])
    return f"{top}-GPM EDPSE by budget: " + ", ".join(
        f"{m.budget_label(fraction)} {by_gpms[top]:.1f}%"
        for fraction, by_gpms in result.edpse.items()
    )


@_study(
    "idle_study",
    "race-to-idle vs pacing on per-GPM sleep states",
    {"quick": True},
)
def _summ_idle(m, result) -> str:
    return "\n".join(
        _verdict(
            f"{shape} direction",
            result.mean_edpse("race-to-idle", shape),
            op,
            result.mean_edpse("utilization", shape),
        )
        for shape, op in (("bursty", ">"), ("steady", "<"))
    )


@_study(
    "figllm_study",
    "LLM serving: governors on prefill/decode/tenant grids",
    {"quick": True},
)
def _summ_figllm(m, result) -> str:
    lines = []
    for governor in m.STUDY_GOVERNORS:
        if governor not in result.edpse:
            continue
        lines.append(
            f"{governor}: mean EDPSE {result.mean_edpse(governor):.1f}%"
            f" (decode grid {result.edpse[governor]['decode']:.1f}%)"
        )
    lines.append(
        _verdict(
            "decode-grid direction",
            result.edpse["race-to-idle"]["decode"],
            ">",
            result.edpse["utilization"]["decode"],
        )
    )
    return "\n".join(lines)


#: The studies whose grids the roofline screen can prune.
SCREENED: tuple[str, ...] = tuple(
    name for name, job in FIGURES.items() if job.takes_screen
)


def resolve_figures(names: tuple[str, ...] | None) -> list[FigureJob]:
    """Map user-facing study names to jobs (deduplicated, in order)."""
    if not names:
        return list(FIGURES.values())
    names = tuple(dict.fromkeys(names))
    unknown = [name for name in names if name not in FIGURES]
    if unknown:
        raise ExperimentError(
            f"unknown figure(s) {unknown}; known: {list(FIGURES)}"
        )
    return [FIGURES[name] for name in names]


def run_figures(
    names: tuple[str, ...] | None = None,
    out_dir: str | Path = "results",
    runner: SweepRunner | None = None,
    quick: bool = False,
    echo: Callable[[str], None] | None = None,
    screen: str | None = None,
    top_k: int = 3,
    guard: int = 1,
) -> dict[str, Path]:
    """Regenerate study logs + summaries; return per-study directories.

    Full tier writes ``log.txt``/``summary.txt`` (the committed evidence);
    quick tier writes ``quick.txt``/``quick_summary.txt`` (gitignored).
    Output bytes are a pure function of the code and the study grids —
    no timestamps, hostnames, or float formatting left to chance.

    ``screen`` prunes the grid analytically before simulating (see
    docs/MODELING.md); only the studies in :data:`SCREENED` accept it,
    and any other selected study is rejected before anything runs.

    Once every study's files are written, one ``ExperimentError`` lists
    each paper claim that failed as ``study: claim text``.
    """
    jobs = resolve_figures(names)
    screen_kwargs = None
    if screen is not None:
        unsupported = [job.name for job in jobs if not job.takes_screen]
        if unsupported:
            raise ExperimentError(
                f"--screen applies to {sorted(SCREENED)} only,"
                f" got {unsupported}"
            )
        screen_kwargs = {"screen": screen, "top_k": top_k, "guard": guard}
    runner = runner or SweepRunner()
    out_dir = Path(out_dir)
    log_name, summary_name = (
        ("quick.txt", "quick_summary.txt") if quick else
        ("log.txt", "summary.txt")
    )
    written: dict[str, Path] = {}
    failures: list[str] = []
    for job in jobs:
        if echo is not None:
            echo(f"[figures] {job.name}: {job.title}")
        log, summary, failed = job.build(runner, quick, screen_kwargs)
        fig_dir = out_dir / job.name
        fig_dir.mkdir(parents=True, exist_ok=True)
        (fig_dir / log_name).write_text(log, encoding="utf-8")
        (fig_dir / summary_name).write_text(summary, encoding="utf-8")
        written[job.name] = fig_dir
        failures += [f"{job.name}: {text}" for text in failed]
    if failures:
        raise ExperimentError(
            f"{len(failures)} paper claim(s) failed: " + "; ".join(failures)
        )
    return written
