"""The SM core: issue bandwidth, memory port, and utilization accounting.

The SM's scarce resource in this model is *issue bandwidth*: a
:class:`~repro.sim.resources.ThroughputServer` serving issue-slot units at a
configurable rate (instructions/cycle).  Double-precision and SFU operations
carry larger issue weights (see :mod:`repro.isa.opcodes`), so a segment heavy
in FP64 occupies the issue stage ~3x longer than the same count of FP32 —
matching the throughput ratios of the modeled Kepler-class machine without
simulating functional-unit pipelines individually.

The SM's idle cycles — elapsed time minus issue busy time, summed over SMs —
are the ``stalls`` input of the GPUJoule equation: cycles in which the SM had
nothing ready to issue because every resident warp was waiting on memory (or
the SM had no work at all, the load-imbalance case at high GPM counts).
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.gpu.counters import CounterSet
from repro.memory.hierarchy import GpmMemory
from repro.sim.engine import Engine
from repro.sim.resources import ThroughputServer


class SmCore:
    """One streaming multiprocessor inside a GPM."""

    __slots__ = (
        "engine",
        "sm_id",
        "gpm_id",
        "local_index",
        "issue",
        "memory",
        "counters",
        "ctas_retired",
    )

    def __init__(
        self,
        engine: Engine,
        sm_id: int,
        gpm_id: int,
        local_index: int,
        issue_rate: float,
        memory: GpmMemory,
        counters: CounterSet,
    ):
        if issue_rate <= 0:
            raise ConfigError(f"SM issue rate must be positive, got {issue_rate}")
        self.engine = engine
        self.sm_id = sm_id
        self.gpm_id = gpm_id
        self.local_index = local_index
        self.issue = ThroughputServer(engine, issue_rate, name=f"sm{sm_id}.issue")
        self.memory = memory
        self.counters = counters
        self.ctas_retired = 0

    def busy_cycles(self) -> float:
        """Cycles the issue stage spent serving instructions so far."""
        return self.issue.busy_time

    def idle_cycles(self, elapsed: float) -> float:
        """Issue-stage idle cycles over an ``elapsed`` window."""
        return max(0.0, elapsed - self.issue.busy_time)

    def __repr__(self) -> str:
        return f"SmCore(sm={self.sm_id}, gpm={self.gpm_id})"
