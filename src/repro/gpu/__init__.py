"""GPU assembly: configurations, GPMs, CTA scheduling, and the simulator facade."""

from repro.gpu.config import (
    BandwidthSetting,
    GpmConfig,
    GpuConfig,
    IntegrationDomain,
    InterconnectConfig,
    TopologyKind,
    monolithic_config,
    table_iii_config,
)
from repro.gpu.counters import CounterSet
from repro.gpu.simulator import RunResult, simulate

__all__ = [
    "BandwidthSetting",
    "GpmConfig",
    "GpuConfig",
    "IntegrationDomain",
    "InterconnectConfig",
    "TopologyKind",
    "monolithic_config",
    "table_iii_config",
    "CounterSet",
    "RunResult",
    "simulate",
]
