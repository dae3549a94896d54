"""Pointer-chasing data-movement microbenchmarks.

Each benchmark isolates one level of the memory hierarchy: it models a chase
whose working set fits entirely within the target level while exceeding every
faster level, and accesses form a dependent pointer chase so the hardware cannot
overlap them (latency exposes cleanly, and every access misses the faster
levels by construction — warp-level coalescing keeps each chase step a single
128 B line).

Execution is analytic, like the compute benchmarks: a chase of ``n`` steps at
a level with round-trip latency ``L`` takes ``n * L`` cycles for every warp in
parallel, and produces a fixed, known transaction count per step — which is
exactly why pointer chases are the standard instrument for EPT isolation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.gpu.counters import CounterSet
from repro.isa.opcodes import Opcode
from repro.units import DEFAULT_CLOCK_HZ, SECTORS_PER_LINE


class MemoryLevel(enum.Enum):
    """The hierarchy level a pointer chase is pinned to."""

    SHARED = "shared"
    L1 = "l1"
    L2 = "l2"
    DRAM = "dram"


#: Round-trip latency (cycles) of one dependent chase step at each level.
_CHASE_LATENCY_CYCLES: dict[MemoryLevel, float] = {
    MemoryLevel.SHARED: 30.0,
    MemoryLevel.L1: 35.0,
    MemoryLevel.L2: 190.0,
    MemoryLevel.DRAM: 440.0,
}


def chase_latency_cycles(level: MemoryLevel) -> float:
    """Round-trip latency of one dependent chase step at ``level``."""
    return _CHASE_LATENCY_CYCLES[level]


def steps_for_steady_state(
    latency_cycles: float,
    clock_hz: float = DEFAULT_CLOCK_HZ,
    min_seconds: float = 0.04,
) -> int:
    """Chase steps needed so the run comfortably spans sensor windows.

    Calibration benchmarks must outlast the power sensor's 15 ms refresh
    period by a wide margin, or the reading blends with surrounding idle time
    (the short-kernel failure mode).  40 ms covers at least two full windows.
    """
    if latency_cycles <= 0:
        raise ConfigError("latency_cycles must be positive")
    return int(min_seconds * clock_hz / latency_cycles) + 1


@dataclass(frozen=True)
class MemoryMicrobenchmark:
    """A dependent pointer chase pinned to one hierarchy level."""

    level: MemoryLevel
    steps_per_warp: int = 20_000
    num_sms: int = 15
    warps_per_sm: int = 8
    issue_rate: float = 4.0
    clock_hz: float = DEFAULT_CLOCK_HZ
    #: Independent chase chains per warp.  One chain exposes pure latency;
    #: several chains overlap their round trips and drive the target level
    #: toward bandwidth saturation, amortizing any rate-dependent overheads
    #: into the per-transaction estimate (as the paper's benchmarks do by
    #: filling every SM).
    independent_chains: int = 4
    #: Peak bandwidth of the DRAM level (GB/s); chases cannot exceed it.
    dram_peak_gbps: float = 280.0

    def __post_init__(self) -> None:
        if self.steps_per_warp <= 0:
            raise ConfigError("steps_per_warp must be positive")
        if self.num_sms <= 0 or self.warps_per_sm <= 0:
            raise ConfigError("num_sms and warps_per_sm must be positive")
        if self.independent_chains <= 0:
            raise ConfigError("independent_chains must be positive")
        if self.dram_peak_gbps <= 0:
            raise ConfigError("dram_peak_gbps must be positive")

    @property
    def name(self) -> str:
        return f"ubench.memory.{self.level.value}"

    @property
    def chase_latency_cycles(self) -> float:
        return chase_latency_cycles(self.level)

    @property
    def total_warps(self) -> int:
        return self.num_sms * self.warps_per_sm

    @property
    def total_steps(self) -> int:
        return self.steps_per_warp * self.total_warps

    def transactions_per_step(self) -> CounterSet:
        """Transactions generated by ONE chase step (the isolation property).

        A chase step at level X hits in X and misses everything faster:
        shared-memory chases never leave the SM; L1 chases move one line to
        the register file; L2 chases additionally move the line's sectors
        L2->L1; DRAM chases move sectors across both lower boundaries.
        """
        step = CounterSet()
        if self.level is MemoryLevel.SHARED:
            step.shared_rf_txns = 1
            return step
        step.l1_rf_txns = 1
        if self.level is MemoryLevel.L1:
            return step
        step.l2_l1_txns = SECTORS_PER_LINE
        if self.level is MemoryLevel.L2:
            return step
        step.dram_l2_txns = SECTORS_PER_LINE
        return step

    def execute(self) -> tuple[CounterSet, float]:
        """Analytic execution: (counters, duration in seconds).

        ``steps_per_warp`` total steps are spread across the warp's
        independent chains, so the latency-bound duration is
        ``steps * latency / chains`` cycles — unless the aggregate line rate
        exceeds the level's bandwidth, in which case the chase runs
        bandwidth-bound (the DRAM case by construction).  One address-update
        IADD accompanies each step — the loop arithmetic the refinement pass
        must subtract.  The SM issue stage is idle almost the whole time;
        that idleness is real, and first-pass calibration deliberately
        mis-attributes it to the EPT until the refinement loop separates the
        stall term (Section IV's coverage-improvement step).
        """
        counters = CounterSet()
        step = self.transactions_per_step()
        n = self.total_steps
        counters.shared_rf_txns = step.shared_rf_txns * n
        counters.l1_rf_txns = step.l1_rf_txns * n
        counters.l2_l1_txns = step.l2_l1_txns * n
        counters.dram_l2_txns = step.dram_l2_txns * n
        counters.count_instruction(Opcode.IADD32, n)

        latency_bound = (
            self.steps_per_warp * self.chase_latency_cycles / self.independent_chains
        )
        elapsed_cycles = latency_bound
        if self.level is MemoryLevel.DRAM:
            from repro.units import CACHE_LINE_BYTES, gbps_to_bytes_per_cycle

            bytes_per_cycle = gbps_to_bytes_per_cycle(
                self.dram_peak_gbps, self.clock_hz
            )
            bandwidth_bound = n * CACHE_LINE_BYTES / bytes_per_cycle
            elapsed_cycles = max(latency_bound, bandwidth_bound)

        issue_slots_per_sm = self.warps_per_sm * self.steps_per_warp * 2.0
        busy_per_sm = min(issue_slots_per_sm / self.issue_rate, elapsed_cycles)
        counters.sm_busy_cycles = busy_per_sm * self.num_sms
        counters.sm_idle_cycles = (elapsed_cycles - busy_per_sm) * self.num_sms
        counters.elapsed_cycles = elapsed_cycles
        return counters, elapsed_cycles / self.clock_hz
