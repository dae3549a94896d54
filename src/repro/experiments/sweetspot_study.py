"""Energy-sweet-spot study: EDPSE vs. core frequency across GPM counts.

The paper evaluates every configuration at the fixed K40 boost point; this
study opens the V/f axis the DVFS subsystem provides.  For the Table II
scaling subset on 1-16 GPMs, each workload is simulated at five core
operating points spanning the K40 ladder, priced with the point-scaled
energy model, and summarized two ways:

* the EDPSE surface — mean EDPSE (Eq. 2, against the paper's fixed 1-GPM
  anchor baseline) per (frequency, GPM count), showing how far voltage
  scaling moves the multi-module efficiency story; and
* the per-workload sweet spots — the EDP-optimal core frequency per
  workload and GPM count, separating compute-bound workloads (optimum high
  on the ladder) from memory-bound ones (optimum well below max clock,
  stepping lower as GPM count grows).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dvfs.config import ClockDomain
from repro.dvfs.operating_point import K40_VF_CURVE, OperatingPoint
from repro.dvfs.sweetspot import SweetSpot, SweetSpotSearch
from repro.errors import ExperimentError
from repro.experiments.render import render_table
from repro.experiments.runner import SweepRunner
from repro.gpu.config import table_iii_config
from repro.units import mean
from repro.workloads.suite import SCALING_SUBSET, WORKLOAD_SPECS

#: GPM counts the study sweeps (the paper's 1-16 scaling range).
STUDY_GPM_COUNTS: tuple[int, ...] = (1, 2, 4, 8, 16)

#: Core operating points studied, spanning the K40 application-clock ladder.
STUDY_FREQUENCIES_HZ: tuple[float, ...] = (
    324.0e6, 480.0e6, 614.0e6, 745.0e6, 875.0e6
)

#: The paper's fixed operating point (baseline for every EDPSE number).
ANCHOR_FREQUENCY_HZ: float = K40_VF_CURVE.anchor.frequency_hz

#: GPM counts swept per non-core clock domain.  The DRAM domain matters at
#: every scale; the interconnect domain only exists with more than one GPM.
DOMAIN_GPM_COUNTS: dict[ClockDomain, tuple[int, ...]] = {
    ClockDomain.DRAM: (1, 4, 16),
    ClockDomain.INTERCONNECT: (4, 16),
}


def study_points() -> tuple[OperatingPoint, ...]:
    """The operating points of the study grid, taken off the K40 curve."""
    return tuple(
        K40_VF_CURVE.point_at(frequency) for frequency in STUDY_FREQUENCIES_HZ
    )


@dataclass
class SweetSpotStudyResult:
    """The EDPSE-vs-frequency surface plus per-workload optima."""

    #: One sweep per (config, workload), keyed ``spots[num_gpms][workload]``.
    spots: dict[int, dict[str, SweetSpot]]
    #: Mean EDPSE (%) across workloads, keyed ``edpse[frequency_hz][num_gpms]``.
    edpse: dict[float, dict[int, float]]
    #: Non-core-domain sweeps, keyed ``domain_spots[domain][num_gpms][workload]``
    #: (``domain`` is the :class:`ClockDomain` value string).
    domain_spots: dict[str, dict[int, dict[str, SweetSpot]]] = field(
        default_factory=dict
    )
    #: Screen mode the study ran under (``None`` = exhaustive).  Screened
    #: runs skip the EDPSE surface: it needs every frequency simulated,
    #: which is exactly what screening avoids.
    screen: str | None = None

    def spot(self, workload: str, num_gpms: int) -> SweetSpot:
        try:
            return self.spots[num_gpms][workload]
        except KeyError as exc:
            raise ExperimentError(
                f"no sweet-spot sweep for {workload!r} on {num_gpms} GPMs"
            ) from exc

    def optimal_frequency_hz(self, workload: str, num_gpms: int) -> float:
        """The EDP-optimal core frequency of one (workload, GPM count)."""
        return self.spot(workload, num_gpms).point.frequency_hz

    def render(self) -> str:
        """The EDPSE surface and the per-workload sweet-spot table."""
        counts = sorted(self.spots)
        sections = []
        if self.edpse:
            surface_rows = [
                [f"{frequency / 1e6:.0f} MHz"]
                + [self.edpse[frequency][n] for n in counts]
                for frequency in self.edpse
            ]
            sections.append(render_table(
                "Sweet-spot study: mean EDPSE (%) vs. core frequency",
                ["core clock"] + [f"{n}-GPM" for n in counts],
                surface_rows,
                note=(
                    "EDPSE baseline: 1-GPM at the 745 MHz anchor (the paper's"
                    " fixed configuration).  Values above the anchor row's"
                    " show frequencies that beat the paper's operating point."
                ),
            ))

        spot_rows = []
        for abbr in sorted(self.spots[counts[0]]):
            spec = WORKLOAD_SPECS[abbr]
            spot_rows.append(
                [abbr, spec.category.value]
                + [
                    f"{self.optimal_frequency_hz(abbr, n) / 1e6:.0f}"
                    for n in counts
                ]
            )
        spot_note = (
            "Every workload's EDP optimum sits below the 875 MHz ceiling"
            " (the top step's V² energy outruns its delay win), and"
            " memory-intensive workloads settle lower still — stepping"
            " down as GPM count grows and DRAM/interconnect stalls"
            " lengthen."
        )
        if self.screen is not None:
            simulated = scored = 0
            for by_workload in self.spots.values():
                for spot in by_workload.values():
                    if spot.disposition is not None:
                        simulated += spot.disposition.simulated_points
                        scored += spot.disposition.scored_points
            spot_note = (
                f"Screened sweep ({self.screen}): each curve's optimum was"
                f" picked from the analytically ranked top points only —"
                f" {simulated} of {scored} grid points simulated.  The EDPSE"
                " surface is omitted (it needs the full grid)."
            )
        spots = render_table(
            "Per-workload EDP-optimal core frequency (MHz)",
            ["workload", "cat."] + [f"{n}-GPM" for n in counts],
            spot_rows,
            note=spot_note,
        )
        sections.append(spots)

        for domain in (ClockDomain.DRAM, ClockDomain.INTERCONNECT):
            by_count = self.domain_spots.get(domain.value)
            if not by_count:
                continue
            counts = sorted(by_count)
            domain_rows = []
            for abbr in sorted(by_count[counts[0]]):
                spec = WORKLOAD_SPECS[abbr]
                domain_rows.append(
                    [abbr, spec.category.value]
                    + [
                        f"{by_count[n][abbr].point.frequency_hz / 1e6:.0f}"
                        for n in counts
                    ]
                )
            sections.append(
                render_table(
                    f"Per-workload EDP-optimal {domain.value} frequency (MHz)",
                    ["workload", "cat."] + [f"{n}-GPM" for n in counts],
                    domain_rows,
                    note=(
                        f"The {domain.value} clock domain swept with the core"
                        " held at the 745 MHz anchor; optima below the anchor"
                        " mark workloads whose stalls hide the slower domain."
                    ),
                )
            )
        return "\n\n".join(sections)


def run(
    runner: SweepRunner | None = None,
    domains: bool = True,
    screen: str | None = None,
    top_k: int = 3,
    guard: int = 1,
    gpm_counts: tuple[int, ...] | None = None,
    workload_abbrs: tuple[str, ...] | None = None,
    spec_for=None,
) -> SweetSpotStudyResult:
    """Execute (or fetch from cache) the sweet-spot study.

    ``domains=True`` additionally sweeps the DRAM and interconnect clock
    domains over :data:`DOMAIN_GPM_COUNTS` with the core held at the anchor;
    ``False`` restricts the study to the original core-frequency surface.

    ``screen="roofline"`` simulates only the analytically ranked top
    ``top_k + guard`` points per curve (same cache keys as the exhaustive
    sweep, see :mod:`repro.roofline.screen`); the EDPSE surface — which
    needs every frequency — is skipped in that mode.

    ``gpm_counts`` (must include the 1-GPM baseline) also limits the
    domain sweeps to the :data:`DOMAIN_GPM_COUNTS` entries it covers.
    """
    runner = runner or SweepRunner()
    gpm_counts = STUDY_GPM_COUNTS if gpm_counts is None else gpm_counts
    spec_for = spec_for or WORKLOAD_SPECS.__getitem__
    specs = [spec_for(abbr) for abbr in workload_abbrs or SCALING_SUBSET]
    configs = [table_iii_config(n) for n in gpm_counts]
    search = SweetSpotSearch(
        runner, metric="edp", points=study_points(),
        screen=screen, top_k=top_k, guard=guard,
    )
    all_spots = search.search(specs, configs)

    spots: dict[int, dict[str, SweetSpot]] = {}
    for spot in all_spots:
        spots.setdefault(spot.num_gpms, {})[spot.workload] = spot

    edpse: dict[float, dict[int, float]] = {}
    if screen is None:
        anchor = spots[1]
        for frequency in STUDY_FREQUENCIES_HZ:
            edpse[frequency] = {}
            for n in gpm_counts:
                ratios = []
                for abbr, spot in spots[n].items():
                    edp_baseline = (
                        anchor[abbr].sample_at(ANCHOR_FREQUENCY_HZ).edp
                    )
                    edp_here = spot.sample_at(frequency).edp
                    ratios.append(edp_baseline * 100.0 / (n * edp_here))
                edpse[frequency][n] = mean(ratios)

    domain_spots: dict[str, dict[int, dict[str, SweetSpot]]] = {}
    if domains:
        for domain, all_counts in DOMAIN_GPM_COUNTS.items():
            counts = [n for n in all_counts if n in gpm_counts]
            if not counts:
                continue
            domain_search = SweetSpotSearch(
                runner, metric="edp", points=study_points(), domain=domain,
                screen=screen, top_k=top_k, guard=guard,
            )
            found = domain_search.search(
                specs, [table_iii_config(n) for n in counts]
            )
            by_count: dict[int, dict[str, SweetSpot]] = {}
            for spot in found:
                by_count.setdefault(spot.num_gpms, {})[spot.workload] = spot
            domain_spots[domain.value] = by_count
    return SweetSpotStudyResult(
        spots=spots, edpse=edpse, domain_spots=domain_spots, screen=screen
    )
