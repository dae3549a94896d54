"""One GPU module: SMs, memory path, and its kernel driver.

Clock domains: the engine's timebase is the *anchor* core clock
(``config.clock_hz``); a :class:`~repro.dvfs.config.DomainScales` bundle
rescales this module's rates relative to it — SM issue throughput and cache
pipeline latencies for the core domain, DRAM bandwidth and access latency
for the memory domain.  At the anchor point every ratio is exactly 1.0 and
the arithmetic is IEEE-exact, so un-scaled configurations behave
bit-identically to a build without DVFS.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import replace

from repro.dvfs.config import DomainScales, IDENTITY_SCALES
from repro.dvfs.operating_point import OperatingPoint, VfCurve
from repro.gpu.config import GpmConfig
from repro.gpu.counters import CounterSet
from repro.isa.kernel import Kernel
from repro.memory.dram import DramChannel
from repro.memory.hierarchy import GpmMemory, HierarchyLatencies
from repro.memory.pages import PagePlacement
from repro.sim.engine import Engine
from repro.sm.scheduler import CtaSlotScheduler
from repro.sm.smcore import SmCore


class Gpm:
    """A GPU module: the replicated building block of the multi-module GPU."""

    def __init__(
        self,
        engine: Engine,
        gpm_id: int,
        config: GpmConfig,
        placement: PagePlacement,
        counters: CounterSet,
        scales: DomainScales | None = None,
    ):
        scales = IDENTITY_SCALES if scales is None else scales
        self.engine = engine
        self.gpm_id = gpm_id
        self.config = config
        self.counters = counters
        self.scales = scales
        self.core_scale = scales.core_freq
        dram_config = replace(
            config.dram,
            bandwidth_gbps=config.dram.bandwidth_gbps * scales.dram_freq,
            latency_cycles=config.dram.latency_cycles / scales.dram_freq,
        )
        self.dram = DramChannel(
            engine, dram_config, name=f"gpm{gpm_id}.dram",
            clock_hz=config.clock_hz,
        )
        self.memory = GpmMemory(
            engine=engine,
            gpm_id=gpm_id,
            num_sms=config.num_sms,
            l1_config=config.l1_config,
            l2_config=config.l2_config,
            dram=self.dram,
            placement=placement,
            counters=counters,
            latencies=self._scaled_latencies(scales.core_freq),
        )
        #: SMs by local index, each built when a CTA slot is first taken on
        #: it (:meth:`sm`); ``None`` for an SM that has run nothing yet.
        self.sms: list[SmCore | None] = [None] * config.num_sms
        self.scheduler = CtaSlotScheduler(
            engine, config.num_sms, config.slots_per_sm
        )

    def sm(self, local: int) -> SmCore:
        """SM ``local`` of this module, built on first use.

        A scaled-down grid leaves most SMs without a CTA, so building only
        the ones that get one keeps an idle SM from costing anything but
        its ``None`` entry.  A new SM issues at the module's current core
        rate, the rate :meth:`apply_core_point` gives every built SM.
        """
        sm = self.sms[local]
        if sm is None:
            config = self.config
            sm = self.sms[local] = SmCore(
                engine=self.engine,
                sm_id=self.gpm_id * config.num_sms + local,
                gpm_id=self.gpm_id,
                local_index=local,
                issue_rate=config.issue_rate * self.core_scale,
                memory=self.memory,
                counters=self.counters,
            )
        return sm

    def _scaled_latencies(self, core_ratio: float) -> HierarchyLatencies:
        """Fixed core-cycle pipeline depths expressed in anchor cycles."""
        base = self.config.latencies
        return HierarchyLatencies(
            shared=base.shared / core_ratio,
            l1=base.l1 / core_ratio,
            l2=base.l2 / core_ratio,
        )

    # -------------------------------------------------------------------- dvfs

    def apply_core_point(self, point: OperatingPoint, curve: VfCurve) -> None:
        """Retarget this module's core domain to ``point`` (governor hook).

        Takes effect for subsequently issued work: issue reservations use the
        new rate and cache stages the new latencies; in-flight reservations
        keep the completion times they were given (the standard horizon-server
        approximation).
        """
        ratio = curve.frequency_ratio(point)
        self.core_scale = ratio
        for sm in self.sms:
            if sm is not None:
                sm.issue.rate = self.config.issue_rate * ratio
        self.memory.latencies = self._scaled_latencies(ratio)

    def run_kernel(self, kernel: Kernel, cta_ids: list[int]) -> Generator:
        """Process generator executing this GPM's share of one kernel."""
        if not cta_ids:
            return
            yield  # pragma: no cover - keeps this a generator for empty shares
        yield from self.scheduler.run_kernel(kernel, cta_ids, self.sm)

    def busy_cycles(self) -> float:
        """Summed SM issue-stage busy cycles, in SM order; an SM not yet
        built was never busy."""
        return sum(0.0 if sm is None else sm.busy_cycles() for sm in self.sms)

    def idle_cycles(self, elapsed: float) -> float:
        """Summed SM issue-stage idle cycles over an elapsed window, in SM
        order; an SM not yet built idled for all of it."""
        return sum(
            elapsed if sm is None else sm.idle_cycles(elapsed)
            for sm in self.sms
        )

    def __repr__(self) -> str:
        return f"Gpm(id={self.gpm_id}, sms={self.config.num_sms})"
