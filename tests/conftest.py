"""Shared fixtures: tiny workloads and configurations that simulate fast."""

from __future__ import annotations

import pytest

from repro.gpu.config import (
    BandwidthSetting,
    GpmConfig,
    GpuConfig,
    IntegrationDomain,
    InterconnectConfig,
    TopologyKind,
)
from repro.isa.kernel import Kernel, Workload, WorkloadCategory
from repro.isa.opcodes import Opcode
from repro.isa.program import MemAccess, Segment, WarpProgram
from repro.memory.hierarchy import GpmMemory
from repro.power.meter import PowerMeter
from repro.power.silicon import SiliconGpu


def make_program(
    cta_id: int,
    warp_id: int,
    segments: int = 4,
    accesses: int = 2,
    compute: int = 8,
    stride: int = 2048,
) -> WarpProgram:
    """A small deterministic streaming program for one warp."""
    base = (cta_id * 8 + warp_id) * 64 * 1024
    built = []
    for segment in range(segments):
        accs = tuple(
            MemAccess(address=base + (segment * accesses + i) * stride, size=128)
            for i in range(accesses)
        )
        built.append(
            Segment(compute={Opcode.FFMA32: compute}, accesses=accs)
        )
    return WarpProgram(built)


def access_one(
    memory: GpmMemory, sm_index: int, access: MemAccess, earliest: float
) -> tuple[float, list]:
    """One warp access as a one-access segment: ``(completion, remote loads)``."""
    pending: list = []
    return memory.access_segment(sm_index, (access,), earliest, pending), pending


def tiny_workload(
    num_ctas: int = 16,
    warps_per_cta: int = 2,
    kernels: int = 1,
    category: WorkloadCategory = WorkloadCategory.COMPUTE,
) -> Workload:
    """A complete workload small enough for per-test simulation."""
    kernel_list = [
        Kernel(
            name=f"tiny.k{index}",
            num_ctas=num_ctas,
            warps_per_cta=warps_per_cta,
            program_factory=make_program,
        )
        for index in range(kernels)
    ]
    return Workload("tiny", kernel_list, category)


def small_gpm(num_sms: int = 4) -> GpmConfig:
    """A reduced GPM so multi-GPM tests stay fast."""
    return GpmConfig(num_sms=num_sms, slots_per_sm=2)


def small_config(
    num_gpms: int = 2,
    topology: TopologyKind = TopologyKind.RING,
    bandwidth_gbps: float = 256.0,
) -> GpuConfig:
    """A small multi-GPM configuration for integration tests."""
    interconnect = None
    if num_gpms > 1:
        interconnect = InterconnectConfig(
            kind=topology,
            per_gpm_bandwidth_gbps=bandwidth_gbps,
            link_latency_cycles=15.0,
            energy_pj_per_bit=0.54,
        )
    return GpuConfig(
        gpm=small_gpm(),
        num_gpms=num_gpms,
        interconnect=interconnect,
        integration_domain=IntegrationDomain.ON_PACKAGE,
    )


@pytest.fixture
def workload() -> Workload:
    return tiny_workload()


@pytest.fixture
def silicon() -> SiliconGpu:
    return SiliconGpu(seed=40)


@pytest.fixture
def meter(silicon: SiliconGpu) -> PowerMeter:
    return PowerMeter(silicon)


@pytest.fixture
def bandwidth_2x() -> BandwidthSetting:
    return BandwidthSetting.BW_2X
