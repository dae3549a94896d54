"""The GPUJoule energy equation (Eq. 4) and its per-component breakdown.

The model predicts total GPU energy as::

    E = sum_c EPI_c * IC_c            (compute instructions, per thread)
      + sum_m EPT_m * TC_m            (memory transactions, per level)
      + EPStall * stalls              (idle SM pipeline cycles)
      + ConstPower * ExecTime         (platform constant power)
      + E_link/bit * interconnect traffic   (multi-module extension, §V-A2)

Constant power scales with module count following the integration domain:
on-board designs replicate the full per-GPM platform overhead; on-package
designs amortize a configurable share of it across GPMs (Constant Energy
Amortization, §V-A2/§V-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core import epi_tables
from repro.core.epi_tables import EnergyConstants, TransactionKind
from repro.dvfs.config import DvfsConfig
from repro.errors import ConfigError
from repro.gpu.config import GpuConfig, IntegrationDomain
from repro.gpu.counters import CounterSet
from repro.isa.opcodes import Opcode
from repro.units import nj, pj_per_bit_to_joules_per_byte


@dataclass(frozen=True)
class GpmEnergy:
    """One GPM's core-domain energy, priced at its own operating scales.

    Covers exactly the components the per-GPM core clock domain prices
    (compute EPIs, stalls, and the on-module cache EPTs); the chip-global
    domains (DRAM, interconnect, constant power) have no per-GPM split.
    """

    gpm_id: int
    core_scale: float     # V² dynamic scale of this GPM's core domain
    stall_scale: float    # V²·f stall scale of this GPM's core domain
    sm_busy: float
    sm_idle: float
    shared_to_rf: float
    l1_to_rf: float
    l2_to_l1: float

    @property
    def total(self) -> float:
        return (
            self.sm_busy
            + self.sm_idle
            + self.shared_to_rf
            + self.l1_to_rf
            + self.l2_to_l1
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "gpm_id": self.gpm_id,
            "core_scale": self.core_scale,
            "stall_scale": self.stall_scale,
            "sm_busy": self.sm_busy,
            "sm_idle": self.sm_idle,
            "shared_to_rf": self.shared_to_rf,
            "l1_to_rf": self.l1_to_rf,
            "l2_to_l1": self.l2_to_l1,
            "total": self.total,
        }


@dataclass
class EnergyBreakdown:
    """Joules per component — the stacks of Figure 7."""

    sm_busy: float = 0.0          # compute-instruction energy (EPI terms)
    sm_idle: float = 0.0          # stall energy (EPStall term)
    constant: float = 0.0         # ConstPower * time
    shared_to_rf: float = 0.0
    l1_to_rf: float = 0.0
    l2_to_l1: float = 0.0
    dram_to_l2: float = 0.0
    inter_gpm: float = 0.0        # link traversal energy (incl. switch hops)
    #: Per-GPM core-domain attribution (filled when the counters carry
    #: per-GPM shards and the pricing carries per-GPM scales).  Not part of
    #: :attr:`total` — for mixed-clock runs the chip core-domain components
    #: above already *are* the exact sums of these entries.
    per_gpm: tuple[GpmEnergy, ...] = ()

    #: Display order used by the Figure 7 rendering.
    COMPONENT_ORDER = (
        "sm_busy",
        "sm_idle",
        "constant",
        "shared_to_rf",
        "l1_to_rf",
        "l2_to_l1",
        "inter_gpm",
        "dram_to_l2",
    )

    @property
    def total(self) -> float:
        return (
            self.sm_busy
            + self.sm_idle
            + self.constant
            + self.shared_to_rf
            + self.l1_to_rf
            + self.l2_to_l1
            + self.dram_to_l2
            + self.inter_gpm
        )

    def as_dict(self) -> dict[str, float]:
        """Component energies keyed by name, in display order."""
        return {name: getattr(self, name) for name in self.COMPONENT_ORDER}

    def fraction(self, component: str) -> float:
        """One component's share of the total (0 when the total is 0)."""
        total = self.total
        if total == 0:
            return 0.0
        return getattr(self, component) / total


def _mean_scale(values: list[float]) -> float:
    """Equal-weight mean of per-GPM scales, exact when they all agree.

    Identical per-GPM scales (the uniform common case) bypass the average so
    no rounding separates a uniform run from direct per-point pricing.
    """
    if all(value == values[0] for value in values):
        return values[0]
    return sum(values) / len(values)


@dataclass(frozen=True)
class CoreDomainPricing:
    """Per-GPM core-domain scale vectors plus the unscaled base costs.

    This is what lets :class:`EnergyModel` price a mixed-clock chip exactly:
    ``Σ_g scale_g · (EPI·IC_g + EPT·TC_g + EPStall·stalls_g)`` over per-GPM
    counter shards, instead of ``mean(scale) · global``.  The base costs are
    the pre-scale values of the params that produced this pricing, so each
    GPM's events reprice from first principles at its own scale.
    """

    #: V² dynamic scale per GPM, in GPM-id order.
    core_sq: tuple[float, ...]
    #: V²·f stall scale per GPM, in GPM-id order.
    stall_scale: tuple[float, ...]
    base_epi_nj: dict[Opcode, float]
    base_shared_rf_ept_j: float
    base_l1_rf_ept_j: float
    base_l2_l1_ept_j: float
    base_ep_stall_nj: float

    def __post_init__(self) -> None:
        if not self.core_sq:
            raise ConfigError("core pricing needs at least one GPM scale")
        if len(self.core_sq) != len(self.stall_scale):
            raise ConfigError(
                f"core pricing scale vectors disagree: {len(self.core_sq)}"
                f" dynamic vs {len(self.stall_scale)} stall scales"
            )

    @property
    def num_gpms(self) -> int:
        return len(self.core_sq)

    @property
    def is_uniform(self) -> bool:
        """True when every GPM shares one scale (pricing collapses exactly)."""
        return all(s == self.core_sq[0] for s in self.core_sq) and all(
            s == self.stall_scale[0] for s in self.stall_scale
        )


@dataclass(frozen=True)
class EnergyParams:
    """Everything the model needs to price one run."""

    epi_nj: dict[Opcode, float] = field(
        default_factory=lambda: dict(epi_tables.EPI_TABLE_NJ)
    )
    shared_rf_ept_j: float = field(
        default_factory=lambda: epi_tables.ept_joules(TransactionKind.SHARED_TO_RF)
    )
    l1_rf_ept_j: float = field(
        default_factory=lambda: epi_tables.ept_joules(TransactionKind.L1_TO_RF)
    )
    l2_l1_ept_j: float = field(
        default_factory=lambda: epi_tables.ept_joules(TransactionKind.L2_TO_L1)
    )
    dram_l2_ept_j: float = field(default_factory=epi_tables.hbm_ept_joules)
    link_pj_per_bit: float = epi_tables.ON_PACKAGE_LINK_PJ_PER_BIT
    switch_pj_per_bit: float = epi_tables.SWITCH_HOP_PJ_PER_BIT
    #: (De)compression energy per uncompressed byte through link codecs
    #: (pJ/byte); only nonzero when the configuration enables compression.
    codec_pj_per_byte: float = 0.0
    constants: EnergyConstants = field(default_factory=EnergyConstants)
    num_gpms: int = 1
    constant_growth_per_gpm: float = 1.0
    #: Per-GPM core-domain scales (set by the DVFS/residency scaling paths);
    #: ``None`` means anchor-point pricing with no per-GPM attribution.
    core_pricing: CoreDomainPricing | None = None

    def __post_init__(self) -> None:
        if self.num_gpms <= 0:
            raise ConfigError("num_gpms must be positive")
        if not 0.0 <= self.constant_growth_per_gpm <= 1.0:
            raise ConfigError(
                "constant_growth_per_gpm is a fraction in [0, 1];"
                f" got {self.constant_growth_per_gpm!r}"
            )

    @property
    def total_constant_power_w(self) -> float:
        """Constant power of the whole GPU after amortization.

        The first GPM always pays its full platform overhead; each additional
        GPM adds ``constant_growth_per_gpm`` of it (1.0 = no sharing,
        on-board; 0.5 = the paper's default on-package amortization).
        """
        per_gpm = self.constants.const_power_w
        return per_gpm * (1.0 + (self.num_gpms - 1) * self.constant_growth_per_gpm)

    @classmethod
    def for_config(
        cls,
        config: GpuConfig,
        constants: EnergyConstants | None = None,
        constant_growth_per_gpm: float | None = None,
        link_pj_per_bit: float | None = None,
    ) -> "EnergyParams":
        """Derive pricing parameters from a simulated GPU configuration.

        The integration domain picks the link signaling energy and the
        constant-energy amortization default (on-package shares 50 % of the
        per-GPM platform overhead; on-board shares nothing).
        """
        on_package = config.integration_domain is IntegrationDomain.ON_PACKAGE
        if constant_growth_per_gpm is None:
            constant_growth_per_gpm = 0.5 if on_package else 1.0
        if link_pj_per_bit is None:
            if config.interconnect is not None:
                link_pj_per_bit = config.interconnect.energy_pj_per_bit
            else:
                link_pj_per_bit = (
                    epi_tables.ON_PACKAGE_LINK_PJ_PER_BIT
                    if on_package
                    else epi_tables.ON_BOARD_LINK_PJ_PER_BIT
                )
        switch_pj = (
            config.interconnect.switch_hop_pj_per_bit
            if config.interconnect is not None
            else epi_tables.SWITCH_HOP_PJ_PER_BIT
        )
        codec_pj = (
            config.compression.codec_pj_per_byte
            if config.compression is not None
            else 0.0
        )
        params = cls(
            link_pj_per_bit=link_pj_per_bit,
            switch_pj_per_bit=switch_pj,
            codec_pj_per_byte=codec_pj,
            constants=constants or EnergyConstants(),
            num_gpms=config.num_gpms,
            constant_growth_per_gpm=constant_growth_per_gpm,
        )
        # Anchor pricing is the identity scale on every GPM; carrying it
        # explicitly lets per-GPM counter shards report per-GPM attribution even
        # for never-rescaled runs, and makes anchor-DVFS params compare
        # equal to these.
        identity = [1.0] * config.num_gpms
        return replace(
            params, core_pricing=params._core_pricing(identity, identity)
        )

    def with_link_energy(self, link_pj_per_bit: float) -> "EnergyParams":
        """Clone with a different link energy (the §V-C point study)."""
        return replace(self, link_pj_per_bit=link_pj_per_bit)

    def with_amortization(self, growth_per_gpm: float) -> "EnergyParams":
        """Clone with a different constant-energy growth fraction."""
        return replace(self, constant_growth_per_gpm=growth_per_gpm)

    # ------------------------------------------------------------------- dvfs

    @classmethod
    def for_operating_point(
        cls,
        config: GpuConfig,
        dvfs: "DvfsConfig | None" = None,
        constants: EnergyConstants | None = None,
        constant_growth_per_gpm: float | None = None,
        link_pj_per_bit: float | None = None,
        residency: "DvfsResidency | None" = None,
    ) -> "EnergyParams":
        """Pricing parameters for a configuration at its DVFS operating point.

        Same derivation as :meth:`for_config`, then rescaled for the V/f
        points in ``dvfs`` (default: the configuration's own ``dvfs`` field;
        both ``None`` means the anchor point and no rescaling at all).

        When a ``residency`` is given — the per-domain time-at-point
        histograms a governed run records — it supersedes the static point
        scaling: every per-event cost becomes the residency-weighted mean of
        its point-scaled values (see :meth:`scaled_for_residency`).  A
        static run's single-bucket residency prices bit-identically to the
        direct per-point scaling.
        """
        params = cls.for_config(
            config,
            constants=constants,
            constant_growth_per_gpm=constant_growth_per_gpm,
            link_pj_per_bit=link_pj_per_bit,
        )
        dvfs = dvfs if dvfs is not None else config.dvfs
        if residency is not None:
            from repro.dvfs.operating_point import K40_VF_CURVE

            curve = dvfs.curve if dvfs is not None else K40_VF_CURVE
            leakage = dvfs.leakage_fraction if dvfs is not None else 0.5
            return params.scaled_for_residency(
                residency, curve, leakage_fraction=leakage
            )
        if dvfs is None:
            return params
        return params.scaled_for(dvfs)

    def scaled_for(self, dvfs: DvfsConfig) -> "EnergyParams":
        """Rescale every per-event cost for a DVFS setting (CMOS model).

        * Dynamic energy per event scales with the square of its domain's
          voltage ratio: compute EPIs, the stall cost, and the on-module
          cache EPTs with core V²; the DRAM EPT with DRAM V²; link, switch,
          and codec energies with interconnect V².
        * The stall cost additionally scales with the core frequency ratio:
          the ``sm_idle_cycles`` counter ticks in *anchor* cycles, and a core
          at ratio ``f`` burns ``f`` idle core cycles per anchor cycle.
        * Constant power splits into a leakage share (∝ V) and an
          idle-clocking share (∝ f·V²), governed by
          ``dvfs.leakage_fraction``.

        With multiple per-GPM core points, every per-GPM scale is carried in
        :attr:`core_pricing` so the model can price each GPM's counter shard
        at that GPM's own scale (exact mixed-clock attribution); the baked
        chip-wide fields fall back to the equal-weight mean of the per-GPM
        scales for counters without shards (see ``docs/POWER.md``).
        """
        curve = dvfs.curve
        if dvfs.core_per_gpm:
            if len(dvfs.core_per_gpm) != self.num_gpms:
                raise ConfigError(
                    f"core_per_gpm has {len(dvfs.core_per_gpm)} points but"
                    f" the pricing covers {self.num_gpms} GPMs"
                )
            pairs = [
                (curve.frequency_ratio(point), curve.voltage_ratio(point))
                for point in dvfs.core_per_gpm
            ]
        else:
            pairs = [
                (curve.frequency_ratio(dvfs.core),
                 curve.voltage_ratio(dvfs.core))
            ] * self.num_gpms
        leak = dvfs.leakage_fraction
        # Expression shapes mirror scaled_for_residency's point functions so
        # static and single-bucket-residency pricing round identically.
        core_sq_vec = [v * v for _, v in pairs]
        stall_vec = [(v * v) * f for f, v in pairs]
        const_vec = [
            leak * v + (1.0 - leak) * f * (v * v) for f, v in pairs
        ]
        dram_v = curve.voltage_ratio(dvfs.dram)
        ic_v = curve.voltage_ratio(dvfs.interconnect)
        return self._with_domain_scales(
            core_sq=_mean_scale(core_sq_vec),
            stall_scale=_mean_scale(stall_vec),
            constant_scale=_mean_scale(const_vec),
            dram_sq=dram_v * dram_v,
            ic_sq=ic_v * ic_v,
            core_pricing=self._core_pricing(core_sq_vec, stall_vec),
        )

    def scaled_for_residency(
        self,
        residency: "DvfsResidency",
        curve: "VfCurve",
        leakage_fraction: float = 0.5,
    ) -> "EnergyParams":
        """Rescale costs by per-domain residency-weighted means.

        Eq. 4 is linear in its per-event costs, so the energy of a run whose
        domains moved between points is the time integral of the point-scaled
        costs — with global counters (event rates assumed stationary) that
        integral collapses to the residency-weighted mean of each scale:

        * core dynamic scale  = Σ_p w_p · V_p²      (per GPM, then averaged)
        * stall scale         = Σ_p w_p · V_p² · f_p
        * constant scale      = Σ_p w_p · (λ·V_p + (1-λ)·f_p·V_p²)
        * DRAM / interconnect = Σ_p w_p · V_p² over their own histograms

        where ``w_p`` is the fraction of the run domain ``d`` spent at point
        ``p`` and λ is ``leakage_fraction``.  A single-bucket residency
        (``w = 1.0``) reproduces :meth:`scaled_for` bit-for-bit.

        Each GPM's weighted scales are also carried per GPM in
        :attr:`core_pricing`, so runs whose counters carry per-GPM shards
        price each module's events at that module's own residency-weighted
        scale (exact mixed-clock attribution); the baked chip-wide fields
        keep the equal-weight mean across GPMs as the shardless fallback.

        Sleep buckets (idle-state runs) split the weighting by cost kind:
        per-*event* costs (the dynamic V² scale) weight over awake time
        only — no instructions retire while gated — while per-*cycle* costs
        (stall, constant) weight over the full window, a gated bucket
        contributing its state's ``residual_fraction`` of the anchor cost.
        Sleep-free residencies take the exact pre-idle code paths.
        """
        leak = leakage_fraction
        if not 0.0 <= leak <= 1.0:
            raise ConfigError(
                f"leakage_fraction is a share in [0, 1]; got {leak!r}"
            )

        # Expression shapes intentionally mirror scaled_for so single-bucket
        # residencies produce identical float roundings.
        def _dyn(freq: float, volt: float) -> float:
            return volt * volt

        def _stall(freq: float, volt: float) -> float:
            return (volt * volt) * freq

        def _const(freq: float, volt: float) -> float:
            return leak * volt + (1.0 - leak) * freq * (volt * volt)

        def _residual(state) -> float:
            return state.residual_fraction

        core_sq_vec = [
            h.weighted_mean(_dyn, curve) for h in residency.core
        ]
        stall_vec = [
            h.weighted_mean_with_sleep(_stall, curve, _residual)
            for h in residency.core
        ]
        const_vec = [
            h.weighted_mean_with_sleep(_const, curve, _residual)
            for h in residency.core
        ]
        return self._with_domain_scales(
            core_sq=_mean_scale(core_sq_vec),
            stall_scale=_mean_scale(stall_vec),
            constant_scale=_mean_scale(const_vec),
            dram_sq=residency.dram.weighted_mean(_dyn, curve),
            ic_sq=residency.interconnect.weighted_mean(_dyn, curve),
            core_pricing=self._core_pricing(core_sq_vec, stall_vec),
        )

    def _core_pricing(
        self, core_sq_vec: list[float], stall_vec: list[float]
    ) -> CoreDomainPricing:
        """Per-GPM pricing capturing this params' pre-scale base costs."""
        return CoreDomainPricing(
            core_sq=tuple(core_sq_vec),
            stall_scale=tuple(stall_vec),
            base_epi_nj=dict(self.epi_nj),
            base_shared_rf_ept_j=self.shared_rf_ept_j,
            base_l1_rf_ept_j=self.l1_rf_ept_j,
            base_l2_l1_ept_j=self.l2_l1_ept_j,
            base_ep_stall_nj=self.constants.ep_stall_nj,
        )

    def _with_domain_scales(
        self,
        core_sq: float,
        stall_scale: float,
        constant_scale: float,
        dram_sq: float,
        ic_sq: float,
        core_pricing: CoreDomainPricing | None = None,
    ) -> "EnergyParams":
        """Apply per-domain scale factors to every priced cost."""
        constants = replace(
            self.constants,
            const_power_w=self.constants.const_power_w * constant_scale,
            ep_stall_nj=self.constants.ep_stall_nj * stall_scale,
        )
        return replace(
            self,
            epi_nj={op: e * core_sq for op, e in self.epi_nj.items()},
            shared_rf_ept_j=self.shared_rf_ept_j * core_sq,
            l1_rf_ept_j=self.l1_rf_ept_j * core_sq,
            l2_l1_ept_j=self.l2_l1_ept_j * core_sq,
            dram_l2_ept_j=self.dram_l2_ept_j * dram_sq,
            link_pj_per_bit=self.link_pj_per_bit * ic_sq,
            switch_pj_per_bit=self.switch_pj_per_bit * ic_sq,
            codec_pj_per_byte=self.codec_pj_per_byte * ic_sq,
            constants=constants,
            core_pricing=core_pricing,
        )


class EnergyModel:
    """Evaluates Eq. 4 over a run's counters."""

    def __init__(self, params: EnergyParams):
        self.params = params

    def evaluate(self, counters: CounterSet, exec_time_s: float) -> EnergyBreakdown:
        """Price one run; returns the component breakdown in joules.

        When the counters carry per-GPM shards and the params carry per-GPM
        core scales, each shard is priced at its own GPM's scale.  For a
        mixed-clock chip the core-domain components become the exact sums
        ``Σ_g scale_g · (EPI·IC_g + EPT·TC_g + EPStall·stalls_g)``; a
        uniform-clock chip keeps the (bit-identical) global-counter path and
        the per-GPM entries are attribution only.  Counters without shards
        fall back to the chip-wide mean scales baked into the params.
        """
        if exec_time_s < 0:
            raise ConfigError(f"negative execution time: {exec_time_s!r}")
        params = self.params
        constants = params.constants
        breakdown = EnergyBreakdown()

        pricing = params.core_pricing
        shards = counters.per_gpm
        if pricing is not None and shards:
            if len(shards) != pricing.num_gpms:
                raise ConfigError(
                    f"counters carry {len(shards)} per-GPM shards but the"
                    f" pricing covers {pricing.num_gpms} GPMs"
                )
            breakdown.per_gpm = tuple(
                self._gpm_energy(pricing, gpm_id, shard)
                for gpm_id, shard in enumerate(shards)
            )

        if breakdown.per_gpm and not pricing.is_uniform:
            # Mixed clocks: the chip core-domain components are the exact
            # sums of the per-GPM attributions.
            breakdown.sm_busy = sum(g.sm_busy for g in breakdown.per_gpm)
            breakdown.sm_idle = sum(g.sm_idle for g in breakdown.per_gpm)
            breakdown.shared_to_rf = sum(
                g.shared_to_rf for g in breakdown.per_gpm
            )
            breakdown.l1_to_rf = sum(g.l1_to_rf for g in breakdown.per_gpm)
            breakdown.l2_to_l1 = sum(g.l2_to_l1 for g in breakdown.per_gpm)
        else:
            warp = constants.warp_size
            epi = params.epi_nj
            busy = 0.0
            for opcode, count in counters.instructions.items():
                per_instr_nj = epi.get(opcode)
                if per_instr_nj is None:
                    raise ConfigError(f"no EPI entry for opcode {opcode}")
                busy += per_instr_nj * count * warp
            breakdown.sm_busy = nj(busy)

            breakdown.sm_idle = nj(
                constants.ep_stall_nj * counters.sm_idle_cycles
            )
            breakdown.shared_to_rf = (
                params.shared_rf_ept_j * counters.shared_rf_txns
            )
            breakdown.l1_to_rf = params.l1_rf_ept_j * counters.l1_rf_txns
            breakdown.l2_to_l1 = params.l2_l1_ept_j * counters.l2_l1_txns

        breakdown.constant = params.total_constant_power_w * exec_time_s
        breakdown.dram_to_l2 = params.dram_l2_ept_j * counters.dram_l2_txns

        link_j_per_byte = pj_per_bit_to_joules_per_byte(params.link_pj_per_bit)
        switch_j_per_byte = pj_per_bit_to_joules_per_byte(params.switch_pj_per_bit)
        breakdown.inter_gpm = (
            link_j_per_byte * counters.inter_gpm_byte_hops
            + switch_j_per_byte * counters.switch_byte_traversals
            + params.codec_pj_per_byte * 1e-12 * counters.compression_codec_bytes
        )
        return breakdown

    def _gpm_energy(
        self, pricing: CoreDomainPricing, gpm_id: int, shard: CounterSet
    ) -> GpmEnergy:
        """Price one GPM's counter shard at that GPM's own core scales.

        Expression shapes mirror the global path (cost scaled first, then
        multiplied by the count) so a uniform chip's per-GPM entries reprice
        each shard exactly as the global path would.
        """
        constants = self.params.constants
        warp = constants.warp_size
        core_sq = pricing.core_sq[gpm_id]
        stall_scale = pricing.stall_scale[gpm_id]
        base_epi = pricing.base_epi_nj
        busy = 0.0
        for opcode, count in shard.instructions.items():
            per_instr_nj = base_epi.get(opcode)
            if per_instr_nj is None:
                raise ConfigError(f"no EPI entry for opcode {opcode}")
            busy += (per_instr_nj * core_sq) * count * warp
        return GpmEnergy(
            gpm_id=gpm_id,
            core_scale=core_sq,
            stall_scale=stall_scale,
            sm_busy=nj(busy),
            sm_idle=nj(
                (pricing.base_ep_stall_nj * stall_scale)
                * shard.sm_idle_cycles
            ),
            shared_to_rf=(
                (pricing.base_shared_rf_ept_j * core_sq)
                * shard.shared_rf_txns
            ),
            l1_to_rf=(
                (pricing.base_l1_rf_ept_j * core_sq) * shard.l1_rf_txns
            ),
            l2_to_l1=(
                (pricing.base_l2_l1_ept_j * core_sq) * shard.l2_l1_txns
            ),
        )

    def total_energy(self, counters: CounterSet, exec_time_s: float) -> float:
        """Total joules for one run (Eq. 4 without the breakdown)."""
        return self.evaluate(counters, exec_time_s).total
