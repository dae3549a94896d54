"""Clock domains and the DVFS configuration attached to a GPU.

The simulator keeps its timebase in *anchor* core cycles (the K40 boost
clock every latency and bandwidth figure was calibrated at).  A DVFS setting
therefore never changes what a "cycle" means; it changes *rates relative to
the anchor*:

* a core domain at frequency ratio ``r`` issues ``r`` times the instructions
  per anchor cycle and finishes fixed-core-cycle pipeline stages in ``1/r``
  anchor cycles;
* a DRAM domain at ratio ``r`` moves ``r`` times the bytes per anchor cycle
  and answers in ``1/r`` of its nominal anchor-cycle latency;
* the interconnect domain scales link serialization and propagation the same
  way.

At the anchor point every ratio is exactly 1.0, and multiplying or dividing
an IEEE double by 1.0 is exact — so threading the scales through the timing
layers unconditionally leaves anchor-point runs bit-identical to a build
without DVFS at all.

Domains: each GPM owns its *core* domain (SM issue plus the on-module cache
pipeline); *DRAM* and *interconnect* are chip-global domains, matching how
real parts rail their memory and I/O separately from the SM complex.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.dvfs.operating_point import (
    K40_OPERATING_POINT,
    K40_VF_CURVE,
    OperatingPoint,
    VfCurve,
)
from repro.errors import ConfigError


class ClockDomain(enum.Enum):
    """Independently scalable clock/voltage domains of the modeled GPU."""

    CORE = "core"                  # per-GPM: SM issue + cache pipeline
    DRAM = "dram"                  # chip-global: local DRAM stacks
    INTERCONNECT = "interconnect"  # chip-global: inter-GPM links


@dataclass(frozen=True)
class DomainScales:
    """Frequency and voltage ratios vs. the anchor, one pair per domain.

    These are the only numbers the timing and energy layers ever see; the
    operating points themselves stay in the configuration layer.
    """

    core_freq: float = 1.0
    core_volt: float = 1.0
    dram_freq: float = 1.0
    dram_volt: float = 1.0
    interconnect_freq: float = 1.0
    interconnect_volt: float = 1.0

    def __post_init__(self) -> None:
        for name in (
            "core_freq", "core_volt", "dram_freq", "dram_volt",
            "interconnect_freq", "interconnect_volt",
        ):
            if getattr(self, name) <= 0:
                raise ConfigError(f"scale {name!r} must be positive")


#: The anchor point of every domain: scale nothing.
IDENTITY_SCALES = DomainScales()


def _ratios(curve: VfCurve, point: OperatingPoint) -> tuple[float, float]:
    if not curve.contains(point):
        raise ConfigError(
            f"operating point {point!r} lies outside its V/f curve span"
        )
    return curve.frequency_ratio(point), curve.voltage_ratio(point)


@dataclass(frozen=True)
class DvfsConfig:
    """Per-domain operating points for one simulated GPU.

    ``core`` applies to every GPM unless ``core_per_gpm`` overrides it with
    one point per module (per-GPM clock domains).  All points must lie on
    ``curve``, which also defines the anchor the ratios are taken against.

    ``leakage_fraction`` splits the platform constant power into a leakage
    share (scales with V) and an idle-clocking share (scales with f·V²); the
    default 0.5 keeps the anchor split exact (0.5 + 0.5 == 1.0 in float64).
    """

    core: OperatingPoint = K40_OPERATING_POINT
    dram: OperatingPoint = K40_OPERATING_POINT
    interconnect: OperatingPoint = K40_OPERATING_POINT
    core_per_gpm: tuple[OperatingPoint, ...] = ()
    curve: VfCurve = K40_VF_CURVE
    leakage_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.leakage_fraction <= 1.0:
            raise ConfigError(
                "leakage_fraction is a share in [0, 1];"
                f" got {self.leakage_fraction!r}"
            )
        for point in (self.core, self.dram, self.interconnect, *self.core_per_gpm):
            _ratios(self.curve, point)  # validates span membership

    # ---------------------------------------------------------------- lookup

    def core_point_for(self, gpm_id: int) -> OperatingPoint:
        """The core operating point of one GPM."""
        if self.core_per_gpm:
            if gpm_id >= len(self.core_per_gpm):
                raise ConfigError(
                    f"core_per_gpm has {len(self.core_per_gpm)} points but"
                    f" GPM {gpm_id} exists"
                )
            return self.core_per_gpm[gpm_id]
        return self.core

    def scales_for_gpm(self, gpm_id: int) -> DomainScales:
        """The ratio bundle the timing layer applies to one GPM."""
        core_f, core_v = _ratios(self.curve, self.core_point_for(gpm_id))
        dram_f, dram_v = _ratios(self.curve, self.dram)
        ic_f, ic_v = _ratios(self.curve, self.interconnect)
        return DomainScales(
            core_freq=core_f, core_volt=core_v,
            dram_freq=dram_f, dram_volt=dram_v,
            interconnect_freq=ic_f, interconnect_volt=ic_v,
        )

    def mean_core_ratios(self, num_gpms: int) -> tuple[float, float]:
        """Mean (f, V) core ratios across ``num_gpms`` GPMs (diagnostics).

        With a single chip-wide core point this is exact; with per-GPM points
        it is an equal-weight approximation — the energy model no longer uses
        it for pricing (per-GPM counter shards price each module exactly; see
        ``docs/POWER.md``), so this survives only for reporting.  A per-GPM
        point list that does not cover exactly ``num_gpms`` modules would
        silently mis-weight the mean, so it is rejected.
        """
        if self.core_per_gpm and len(self.core_per_gpm) != num_gpms:
            raise ConfigError(
                f"core_per_gpm has {len(self.core_per_gpm)} points but the"
                f" chip has {num_gpms} GPMs"
            )
        points = self.core_per_gpm or (self.core,)
        pairs = [_ratios(self.curve, point) for point in points]
        return (
            sum(f for f, _ in pairs) / len(pairs),
            sum(v for _, v in pairs) / len(pairs),
        )

    # ---------------------------------------------------------------- naming

    def label(self) -> str:
        """Identity suffix for config labels (``core@562MHz`` style)."""
        parts = []
        if self.core_per_gpm:
            clocks = "/".join(p.label() for p in self.core_per_gpm)
            parts.append(f"core[{clocks}]")
        else:
            parts.append(f"core@{self.core.label()}")
        if self.dram != K40_OPERATING_POINT:
            parts.append(f"dram@{self.dram.label()}")
        if self.interconnect != K40_OPERATING_POINT:
            parts.append(f"ic@{self.interconnect.label()}")
        return "+".join(parts)

    def fingerprint(self) -> dict:
        """Deterministic cache-key content for this DVFS setting.

        Includes the full curve grid: a governed (power-capped) run walks the
        whole ladder, so two configs agreeing on their static points but
        differing in the grid must never share a cache entry.
        """
        def _pf(point: OperatingPoint) -> dict:
            return {"f": point.frequency_hz, "v": point.voltage_v}

        payload = {
            "core": _pf(self.core),
            "dram": _pf(self.dram),
            "interconnect": _pf(self.interconnect),
            "leakage": self.leakage_fraction,
            "curve": {
                "anchor": self.curve.anchor_frequency_hz,
                "points": [_pf(p) for p in self.curve.points],
            },
        }
        if self.core_per_gpm:
            payload["core_per_gpm"] = [_pf(p) for p in self.core_per_gpm]
        return payload

    # -------------------------------------------------------------- builders

    @classmethod
    def core_only(
        cls, point: OperatingPoint, curve: VfCurve = K40_VF_CURVE
    ) -> "DvfsConfig":
        """Scale just the (chip-wide) core domain; DRAM and links stay put."""
        return cls(core=point, curve=curve)

    def with_core(self, point: OperatingPoint) -> "DvfsConfig":
        return replace(self, core=point, core_per_gpm=())
