"""GPU configurations: the basic GPM, Table III scaling points, Table IV I/O.

The basic GPM mirrors the paper's building block (Section V-A1): 16 SMs with
32 KB L1 each, a 2 MB module L2, and one HBM stack at 256 GB/s.  Table III
scales the module count 1-32; Table IV sets per-GPM I/O bandwidth relative to
local DRAM bandwidth — 1x-BW (128 GB/s, on-board), 2x-BW (256 GB/s,
on-package), 4x-BW (512 GB/s, on-package).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.dvfs.config import DvfsConfig
from repro.dvfs.idle import IdleConfig
from repro.errors import ConfigError
from repro.gpu.cta_scheduler import CtaPartitioning
from repro.interconnect.compression import CompressionConfig
from repro.memory.cache import CacheConfig
from repro.memory.dram import DramConfig, HBM
from repro.memory.hierarchy import HierarchyLatencies
from repro.memory.pages import PlacementPolicy
from repro.units import DEFAULT_CLOCK_HZ, KIB, MIB


class IntegrationDomain(enum.Enum):
    """Where the GPMs are integrated; drives link energy and amortization."""

    ON_PACKAGE = "on-package"
    ON_BOARD = "on-board"


class TopologyKind(enum.Enum):
    """Inter-GPM network shape."""

    RING = "ring"
    SWITCH = "switch"
    MESH = "mesh"  # 2D torus; an on-package extension (see interconnect.mesh)


class BandwidthSetting(enum.Enum):
    """Table IV per-GPM I/O bandwidth settings, relative to DRAM bandwidth."""

    BW_1X = "1x-BW"
    BW_2X = "2x-BW"
    BW_4X = "4x-BW"

    @property
    def dram_ratio(self) -> float:
        """Inter-GPM-to-DRAM bandwidth ratio of this setting."""
        return {self.BW_1X: 0.5, self.BW_2X: 1.0, self.BW_4X: 2.0}[self]


#: Published signaling energies (Section V-A2).
ON_PACKAGE_PJ_PER_BIT: float = 0.54   # ground-referenced signaling [23]
ON_BOARD_PJ_PER_BIT: float = 10.0     # board-level SerDes estimate [5]
SWITCH_HOP_PJ_PER_BIT: float = 10.0   # additional cost through a switch chip

#: Table IV's native integration domain for each bandwidth setting.
DEFAULT_DOMAIN_FOR_BW: dict[BandwidthSetting, IntegrationDomain] = {
    BandwidthSetting.BW_1X: IntegrationDomain.ON_BOARD,
    BandwidthSetting.BW_2X: IntegrationDomain.ON_PACKAGE,
    BandwidthSetting.BW_4X: IntegrationDomain.ON_PACKAGE,
}


@dataclass(frozen=True)
class GpmConfig:
    """The basic GPU module (one Table III column divided by module count)."""

    num_sms: int = 16
    l1_capacity_bytes: int = 32 * KIB
    l1_associativity: int = 4
    l2_capacity_bytes: int = 2 * MIB
    l2_associativity: int = 16
    dram: DramConfig = HBM
    issue_rate: float = 4.0
    slots_per_sm: int = 4
    clock_hz: float = DEFAULT_CLOCK_HZ
    latencies: HierarchyLatencies = field(default_factory=HierarchyLatencies)

    def __post_init__(self) -> None:
        if self.num_sms <= 0:
            raise ConfigError("num_sms must be positive")
        if self.issue_rate <= 0:
            raise ConfigError("issue_rate must be positive")
        if self.slots_per_sm <= 0:
            raise ConfigError("slots_per_sm must be positive")
        if self.clock_hz <= 0:
            raise ConfigError("clock_hz must be positive")

    @property
    def l1_config(self) -> CacheConfig:
        return CacheConfig(
            capacity_bytes=self.l1_capacity_bytes,
            associativity=self.l1_associativity,
            name="l1",
        )

    @property
    def l2_config(self) -> CacheConfig:
        return CacheConfig(
            capacity_bytes=self.l2_capacity_bytes,
            associativity=self.l2_associativity,
            write_allocate=True,
            write_back=True,
            name="l2",
        )


@dataclass(frozen=True)
class InterconnectConfig:
    """Inter-GPM network parameters."""

    kind: TopologyKind
    per_gpm_bandwidth_gbps: float
    link_latency_cycles: float
    energy_pj_per_bit: float
    switch_hop_pj_per_bit: float = SWITCH_HOP_PJ_PER_BIT

    def __post_init__(self) -> None:
        if self.per_gpm_bandwidth_gbps <= 0:
            raise ConfigError("per-GPM I/O bandwidth must be positive")
        if self.link_latency_cycles < 0:
            raise ConfigError("link latency must be non-negative")
        if self.energy_pj_per_bit < 0:
            raise ConfigError("link energy must be non-negative")


@dataclass(frozen=True)
class GpuConfig:
    """A complete simulated GPU: N modules plus their integration domain.

    ``compression`` optionally inserts a payload-compression stage in front
    of the inter-GPM network (a Section V-E extension; see
    :mod:`repro.interconnect.compression`).

    ``dvfs`` optionally moves the core/DRAM/interconnect clock domains off
    the anchor K40 operating point (see :mod:`repro.dvfs`); ``None`` means
    the paper's fixed-clock configuration.

    ``power_cap_watts`` enforces a chip-level power budget at runtime: the
    simulator attaches a :class:`~repro.dvfs.governor.PowerCapGovernor`
    that waterfills per-GPM core points under the cap each kernel interval
    (``math.inf`` runs the governor but never throttles; ``None`` disables
    it entirely).  The cap is part of the cacheable configuration — it joins
    the config label and the sweep-cache fingerprint.

    ``idle`` optionally gives every GPM sleep states and picks the governor
    that steers the ladder on top of them (see :mod:`repro.dvfs.idle`);
    ``None`` keeps cores always-on and is bit-identical to the pre-idle
    simulator.  Like the cap, an idle config joins the label and the cache
    fingerprint; idle-off fingerprints are unchanged.

    ``partitioning`` picks how each kernel's CTAs are split across GPMs
    (see :mod:`repro.gpu.cta_scheduler`).  The paper's contiguous split is
    the default; round-robin is the locality-oblivious ablation arm and
    joins the cache fingerprint, while contiguous fingerprints are unchanged.
    """

    gpm: GpmConfig = field(default_factory=GpmConfig)
    num_gpms: int = 1
    interconnect: InterconnectConfig | None = None
    integration_domain: IntegrationDomain = IntegrationDomain.ON_PACKAGE
    placement_policy: PlacementPolicy = PlacementPolicy.FIRST_TOUCH
    partitioning: CtaPartitioning = CtaPartitioning.CONTIGUOUS
    compression: "CompressionConfig | None" = None
    dvfs: "DvfsConfig | None" = None
    power_cap_watts: float | None = None
    idle: "IdleConfig | None" = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.num_gpms <= 0:
            raise ConfigError("num_gpms must be positive")
        if self.num_gpms > 1 and self.interconnect is None:
            raise ConfigError(
                f"{self.num_gpms}-GPM configuration requires an interconnect"
            )
        if self.dvfs is not None and self.dvfs.core_per_gpm:
            if len(self.dvfs.core_per_gpm) != self.num_gpms:
                raise ConfigError(
                    f"dvfs.core_per_gpm has {len(self.dvfs.core_per_gpm)}"
                    f" points for {self.num_gpms} GPMs"
                )
        if self.power_cap_watts is not None and not self.power_cap_watts > 0:
            raise ConfigError(
                f"power_cap_watts must be positive, got"
                f" {self.power_cap_watts!r}"
            )
        if (
            self.power_cap_watts is not None
            and self.idle is not None
            and self.idle.governor == "deadline-paced"
        ):
            raise ConfigError(
                "a power cap and a deadline-paced governor cannot both own"
                " the operating-point policy: the cap may forbid the pace"
                " the deadline needs"
            )

    @property
    def total_sms(self) -> int:
        return self.num_gpms * self.gpm.num_sms

    @property
    def total_l2_bytes(self) -> int:
        return self.num_gpms * self.gpm.l2_capacity_bytes

    @property
    def total_dram_bandwidth_gbps(self) -> float:
        return self.num_gpms * self.gpm.dram.bandwidth_gbps

    def label(self) -> str:
        """Human-readable identity used in reports and cache keys."""
        base = self.name if self.name else f"{self.num_gpms}-GPM"
        if self.dvfs is not None:
            base = f"{base}@{self.dvfs.label()}"
        if self.power_cap_watts is not None:
            base = f"{base}+cap{self.power_cap_watts:g}W"
        if self.idle is not None:
            base = f"{base}+{self.idle.label()}"
        return base


#: GPM counts studied in Table III.
TABLE_III_GPM_COUNTS: tuple[int, ...] = (1, 2, 4, 8, 16, 32)

#: Interconnect propagation latency by integration domain (cycles).
LINK_LATENCY_CYCLES: dict[IntegrationDomain, float] = {
    IntegrationDomain.ON_PACKAGE: 15.0,
    IntegrationDomain.ON_BOARD: 45.0,
}


def table_iv_interconnect(
    bandwidth: BandwidthSetting,
    domain: IntegrationDomain | None = None,
    topology: TopologyKind = TopologyKind.RING,
    energy_pj_per_bit: float | None = None,
    gpm: GpmConfig | None = None,
) -> InterconnectConfig:
    """Build the Table IV interconnect for one bandwidth setting.

    Args:
        bandwidth: 1x/2x/4x-BW relative to local DRAM bandwidth.
        domain: overrides the setting's native integration domain.
        topology: ring (default, Section V-A1) or switch (Section V-C).
        energy_pj_per_bit: overrides the domain's published signaling energy
            (used by the interconnect-energy point study).
        gpm: module whose DRAM bandwidth anchors the ratio (default GPM).
    """
    module = gpm or GpmConfig()
    resolved_domain = domain or DEFAULT_DOMAIN_FOR_BW[bandwidth]
    energy = (
        energy_pj_per_bit
        if energy_pj_per_bit is not None
        else (
            ON_PACKAGE_PJ_PER_BIT
            if resolved_domain is IntegrationDomain.ON_PACKAGE
            else ON_BOARD_PJ_PER_BIT
        )
    )
    return InterconnectConfig(
        kind=topology,
        per_gpm_bandwidth_gbps=module.dram.bandwidth_gbps * bandwidth.dram_ratio,
        link_latency_cycles=LINK_LATENCY_CYCLES[resolved_domain],
        energy_pj_per_bit=energy,
    )


def table_iii_config(
    num_gpms: int,
    bandwidth: BandwidthSetting = BandwidthSetting.BW_2X,
    domain: IntegrationDomain | None = None,
    topology: TopologyKind = TopologyKind.RING,
    energy_pj_per_bit: float | None = None,
    gpm: GpmConfig | None = None,
) -> GpuConfig:
    """Build one Table III scaling point with Table IV I/O settings."""
    if num_gpms not in TABLE_III_GPM_COUNTS:
        raise ConfigError(
            f"num_gpms must be one of {TABLE_III_GPM_COUNTS}, got {num_gpms}"
        )
    module = gpm or GpmConfig()
    resolved_domain = domain or DEFAULT_DOMAIN_FOR_BW[bandwidth]
    interconnect = (
        None
        if num_gpms == 1
        else table_iv_interconnect(
            bandwidth,
            domain=resolved_domain,
            topology=topology,
            energy_pj_per_bit=energy_pj_per_bit,
            gpm=module,
        )
    )
    return GpuConfig(
        gpm=module,
        num_gpms=num_gpms,
        interconnect=interconnect,
        integration_domain=resolved_domain,
        name=f"{num_gpms}-GPM/{bandwidth.value}/{resolved_domain.value}/{topology.value}",
    )


def k40_config() -> GpuConfig:
    """The Tesla K40 validation platform (Table Ia): 15 SMs, 1.5 MB L2, GDDR5.

    Used by the Figure 4b experiment, which validates the calibrated GPUJoule
    model against the synthetic-silicon 'measurements' on the same platform
    the paper measured.
    """
    from repro.memory.dram import GDDR5

    return GpuConfig(
        gpm=GpmConfig(
            num_sms=15,
            l2_capacity_bytes=(3 * MIB) // 2,
            dram=GDDR5,
        ),
        num_gpms=1,
        interconnect=None,
        integration_domain=IntegrationDomain.ON_BOARD,
        name="K40",
    )


def monolithic_config(scale: int, gpm: GpmConfig | None = None) -> GpuConfig:
    """A hypothetical monolithic GPU with ``scale`` x the basic GPM resources.

    Used for the Figure 7 discussion: the same SM count as a ``scale``-GPM
    multi-module GPU but a single unified module (one big L2, aggregated DRAM
    bandwidth, no inter-module network), i.e. NUMA effects removed.
    """
    if scale <= 0:
        raise ConfigError("scale must be positive")
    module = gpm or GpmConfig()
    big_module = replace(
        module,
        num_sms=module.num_sms * scale,
        l2_capacity_bytes=module.l2_capacity_bytes * scale,
        dram=replace(
            module.dram,
            bandwidth_gbps=module.dram.bandwidth_gbps * scale,
            capacity_bytes=module.dram.capacity_bytes * scale,
        ),
    )
    return GpuConfig(
        gpm=big_module,
        num_gpms=1,
        interconnect=None,
        integration_domain=IntegrationDomain.ON_PACKAGE,
        name=f"monolithic-{scale}x",
    )
