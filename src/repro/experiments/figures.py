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

:data:`FIGURES` is the only table of studies: one entry per study module
under ``repro.experiments``, keyed by module name.  Modules are imported
when a study runs, not when this registry is imported, so the registry
stays cheap to load.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
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

    def build(
        self, runner: SweepRunner, quick: bool, screen: dict | None = None
    ) -> tuple[str, str]:
        """Run the study; return (rendered log, headline summary)."""
        module = importlib.import_module(f"{__package__}.{self.name}")
        result = module.run(
            runner, **(self.quick if quick else {}), **(screen or {})
        )
        tier = "quick (smoke) tier" if quick else "full tier"
        if screen:
            tier += (
                f", {screen['screen']} screen top-{screen['top_k']}"
                f" + {screen['guard']} guard"
            )
        banner = f"{self.name}: {self.title} [{tier}]"
        log = banner + "\n\n" + result.render() + "\n"
        summary = banner + "\n" + self.summarize(module, result) + "\n"
        return log, summary


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


@_study("config_tables", "platform, application and configuration tables")
def _summ_config_tables(m, result) -> str:
    return (
        f"{len(m.WORKLOAD_SPECS)} workloads, GPM counts"
        f" {', '.join(map(str, m.TABLE_III_GPM_COUNTS))}"
    )


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
    for job in jobs:
        if echo is not None:
            echo(f"[figures] {job.name}: {job.title}")
        log, summary = job.build(runner, quick, screen_kwargs)
        fig_dir = out_dir / job.name
        fig_dir.mkdir(parents=True, exist_ok=True)
        (fig_dir / log_name).write_text(log, encoding="utf-8")
        (fig_dir / summary_name).write_text(summary, encoding="utf-8")
        written[job.name] = fig_dir
    return written
