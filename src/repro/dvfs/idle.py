"""Per-GPM idle states and the governors that exploit them.

The paper prices multi-module GPUs under *active* scaling only: every core
domain is always clocked, and idle SMs still burn the full per-cycle stall
and constant power of their operating point.  The idle-management literature
the ROADMAP names (*Racing to Idle*; *Chasing the Energy-Efficiency Sweet
Spots in Modern GPUs*) shows the other side of the curve: for bursty
workloads, what a module does while its kernel queue is *empty* dominates
EDPSE.

This module adds that side:

* :class:`SleepState` — a clock-gated or power-gated module state with an
  entry latency (drain/flush, spent awake), an exit latency (wake stall paid
  before the next kernel share issues), and a *residual fraction*: the share
  of the module's active-idle power (stall + constant) still burned while
  gated.  Clock gating is cheap to enter but leaky; power gating is nearly
  free to hold but expensive to cross into.
* :class:`IdleConfig` — the per-chip idle policy attached to
  :class:`~repro.gpu.config.GpuConfig`: which states exist, the wake budget
  bounding their exit latencies, and which governor steers the ladder while
  the states handle the gaps.
* :class:`RaceToIdleGovernor` — sprint every GPM at the top of the curve so
  the active phase ends as early as possible, maximizing the gap the sleep
  states can swallow.  The gating itself lives in the driver
  (:class:`~repro.gpu.multigpu.MultiGpu`) and composes with *any* governor,
  including the PR 4 power cap.
* :class:`DeadlinePacedGovernor` — the opposite bet: given a per-run
  deadline, pick the slowest operating point whose worst-case remaining
  time still meets it, saving V² energy instead of racing for gap time.

Timing is only ever perturbed when an :class:`IdleConfig` is attached:
entry latencies are pure accounting (the drain happens inside the gap), and
exit latencies delay only the woken GPM's next kernel share.  With idle
disabled — or enabled but never engaged, e.g. an infinite entry latency —
runs are bit-identical to the pre-idle simulator, which
``tests/differential/test_idle_identity.py`` pins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.dvfs.operating_point import K40_VF_CURVE, OperatingPoint
from repro.dvfs.governor import (
    Governor,
    GpmObservation,
    PowerCapGovernor,
    UtilizationGovernor,
)
from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.gpu.config import GpuConfig


@dataclass(frozen=True)
class SleepState:
    """One per-GPM sleep state: gating depth traded against transition cost.

    ``entry_latency_cycles`` anchor cycles are spent draining into the state
    (the module is still awake and burning active-idle power); the remainder
    of the gap is gated at ``residual_fraction`` of the active-idle power.
    ``exit_latency_cycles`` anchor cycles stall the module's *next* kernel
    share while it powers back up.  An infinite entry latency makes the
    state unreachable — useful for proving the idle machinery never engages.
    """

    name: str
    entry_latency_cycles: float
    exit_latency_cycles: float
    residual_fraction: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("a sleep state needs a non-empty name")
        if math.isnan(self.entry_latency_cycles) or self.entry_latency_cycles < 0:
            raise ConfigError(
                f"sleep state {self.name!r} entry latency must be"
                f" non-negative, got {self.entry_latency_cycles!r}"
            )
        if not math.isfinite(self.exit_latency_cycles) or self.exit_latency_cycles < 0:
            raise ConfigError(
                f"sleep state {self.name!r} exit latency must be finite and"
                f" non-negative, got {self.exit_latency_cycles!r}"
            )
        if math.isnan(self.residual_fraction) or self.residual_fraction < 0:
            raise ConfigError(
                f"sleep state {self.name!r} residual fraction must be"
                f" non-negative, got {self.residual_fraction!r}"
            )
        if self.residual_fraction > 1.0:
            raise ConfigError(
                f"sleep state {self.name!r} residual fraction"
                f" {self.residual_fraction!r} exceeds the active idle floor"
                " (1.0): gating cannot burn more than staying awake"
            )

    @property
    def breakeven_cycles(self) -> float:
        """Shortest gap worth entering the state for (entry + exit cost)."""
        return self.entry_latency_cycles + self.exit_latency_cycles

    def label(self) -> str:
        return self.name

    def fingerprint(self) -> dict:
        return {
            "name": self.name,
            "entry_latency_cycles": self.entry_latency_cycles,
            "exit_latency_cycles": self.exit_latency_cycles,
            "residual_fraction": self.residual_fraction,
        }


#: Clock gating: stop the clock tree, keep the rails up.  Crossing costs a
#: pipeline drain (~tens of nanoseconds at the anchor clock), but leakage
#: and retention still burn ~30% of the active-idle power.
CLOCK_GATED = SleepState(
    name="clock-gated",
    entry_latency_cycles=50.0,
    exit_latency_cycles=100.0,
    residual_fraction=0.30,
)

#: Power gating: collapse the rails behind retention flops.  Crossing costs
#: microseconds of rail settle, but almost nothing leaks while gated.
POWER_GATED = SleepState(
    name="power-gated",
    entry_latency_cycles=1_000.0,
    exit_latency_cycles=2_500.0,
    residual_fraction=0.02,
)

#: Governor kinds an :class:`IdleConfig` may select.  ``None`` keeps the
#: static operating point and only gates the gaps.
IDLE_GOVERNOR_KINDS = ("race-to-idle", "deadline-paced", "utilization")

#: Default bound on the wake stall the driver will hide at a kernel
#: boundary (anchor cycles).
DEFAULT_WAKE_BUDGET_CYCLES = 50_000.0


@dataclass(frozen=True)
class IdleConfig:
    """Chip-wide idle policy: available sleep states plus the governor.

    At every kernel boundary the driver measures each GPM's gap (how long
    its queue was empty before the barrier closed) and enters the deepest
    state whose break-even cost fits inside it.  A GPM with no work in the
    next kernel *stays* gated across it — the main win on imbalanced grids.
    """

    clock_gated: SleepState | None = CLOCK_GATED
    power_gated: SleepState | None = POWER_GATED
    #: Longest wake stall the driver will hide at a kernel boundary; a state
    #: whose exit latency exceeds it could stall the chip longer than the
    #: gap it saved, so such configs are rejected up front.
    wake_budget_cycles: float = DEFAULT_WAKE_BUDGET_CYCLES
    #: Which governor steers the V/f ladder on top of the gating; ``None``
    #: gates at the static operating point.
    governor: str | None = None
    #: Per-run deadline in anchor cycles; required by ``deadline-paced``.
    deadline_cycles: float | None = None

    def __post_init__(self) -> None:
        if not self.wake_budget_cycles > 0:
            raise ConfigError(
                f"wake budget must be positive, got {self.wake_budget_cycles!r}"
            )
        for state in self.states():
            if state.exit_latency_cycles > self.wake_budget_cycles:
                raise ConfigError(
                    f"sleep state {state.name!r} exit latency"
                    f" {state.exit_latency_cycles:g} exceeds the wake budget"
                    f" {self.wake_budget_cycles:g} (the longest kernel-boundary"
                    " stall the driver will hide)"
                )
        if self.power_gated is not None and self.clock_gated is not None:
            if self.power_gated.name == self.clock_gated.name:
                raise ConfigError(
                    f"sleep states need distinct names, both are"
                    f" {self.clock_gated.name!r}"
                )
            if self.power_gated.residual_fraction > self.clock_gated.residual_fraction:
                raise ConfigError(
                    "the power-gated state must burn no more residual power"
                    " than the clock-gated state"
                    f" ({self.power_gated.residual_fraction!r} >"
                    f" {self.clock_gated.residual_fraction!r})"
                )
        if self.governor is not None and self.governor not in IDLE_GOVERNOR_KINDS:
            raise ConfigError(
                f"unknown idle governor {self.governor!r}; choose one of"
                f" {', '.join(IDLE_GOVERNOR_KINDS)}"
            )
        if self.governor == "deadline-paced":
            if self.deadline_cycles is None:
                raise ConfigError(
                    "the deadline-paced governor needs deadline_cycles"
                )
            if not (
                math.isfinite(self.deadline_cycles) and self.deadline_cycles > 0
            ):
                raise ConfigError(
                    f"deadline_cycles must be positive and finite, got"
                    f" {self.deadline_cycles!r}"
                )
        elif self.deadline_cycles is not None:
            raise ConfigError(
                "a deadline needs the deadline-paced governor"
                + (
                    " (no governor was selected)"
                    if self.governor is None
                    else f", not {self.governor!r}"
                )
            )

    @classmethod
    def governor_only(
        cls, governor: str, deadline_cycles: float | None = None
    ) -> "IdleConfig":
        """An idle policy with no sleep states: the governor alone.

        The way to run a plain governed configuration — the governor kind
        joins the config fingerprint, and with no states the driver's gating
        machinery never engages: only the governor moves the clocks.
        """
        return cls(
            clock_gated=None,
            power_gated=None,
            governor=governor,
            deadline_cycles=deadline_cycles,
        )

    def states(self) -> tuple[SleepState, ...]:
        """Available states, deepest first."""
        return tuple(
            state
            for state in (self.power_gated, self.clock_gated)
            if state is not None
        )

    def state_for_gap(self, gap_cycles: float) -> SleepState | None:
        """Deepest state whose break-even cost fits strictly inside the gap."""
        for state in self.states():
            if gap_cycles > state.breakeven_cycles:
                return state
        return None

    def label(self) -> str:
        if self.governor is None:
            return "idle"
        return f"idle[{self.governor}]"

    def fingerprint(self) -> dict:
        """Stable dict for cache keys; only set when idle is configured."""
        return {
            **(
                {}
                if self.clock_gated is None
                else {"clock_gated": self.clock_gated.fingerprint()}
            ),
            **(
                {}
                if self.power_gated is None
                else {"power_gated": self.power_gated.fingerprint()}
            ),
            "wake_budget_cycles": self.wake_budget_cycles,
            **({} if self.governor is None else {"governor": self.governor}),
            **(
                {}
                if self.deadline_cycles is None
                else {"deadline_cycles": self.deadline_cycles}
            ),
        }


def governor_for(config: GpuConfig) -> Governor | None:
    """The governor a config's power knobs imply, or ``None`` for static.

    The only way a governor reaches a run: the driver builds one per run
    from its configuration, and the power-cap feasibility checks ask it for
    its initial points.  The governor steers the configuration's V/f curve
    (the K40 ladder without a ``dvfs`` setting).  A power cap is a hard
    constraint and keeps the point-selection slot; a race-to-idle request
    composes with it by raising the cap governor's ceiling to the top of the
    curve — sprint as high as the budget allows.  Without a cap the idle
    governor kind maps directly to its policy.
    """
    idle = config.idle
    kind = idle.governor if idle is not None else None
    if config.power_cap_watts is None and kind is None:
        return None
    curve = config.dvfs.curve if config.dvfs is not None else K40_VF_CURVE
    if config.power_cap_watts is not None:
        ceiling = curve.points[-1] if kind == "race-to-idle" else None
        return PowerCapGovernor(
            curve=curve, cap_watts=config.power_cap_watts, ceiling=ceiling
        )
    if kind == "race-to-idle":
        return RaceToIdleGovernor(curve=curve)
    if kind == "deadline-paced":
        return DeadlinePacedGovernor(
            curve=curve, deadline_cycles=idle.deadline_cycles
        )
    return UtilizationGovernor(curve=curve)


@dataclass
class RaceToIdleGovernor(Governor):
    """Sprint at the top of the curve; let the sleep states eat the slack.

    The point policy is trivially static — the *race* half of race-to-idle
    is simply "finish the active phase as early as physics allows".  The
    *idle* half is the driver's gating, which this governor maximizes the
    raw material for: every cycle shaved off the critical path becomes gap
    time some module spends gated instead of burning stall power.
    """

    def initial_points(self, num_gpms: int) -> list[OperatingPoint]:
        return [self.curve.points[-1]] * num_gpms

    def decide_chip(
        self,
        observations: list[GpmObservation],
        now: float,
        window_cycles: float,
    ) -> list[OperatingPoint]:
        return [self.curve.points[-1]] * len(observations)


#: Margin the deadline-paced bound charges on top of the longest window.
DEADLINE_SAFETY: float = 1.5


@dataclass
class DeadlinePacedGovernor(Governor):
    """Slowest uniform operating point that still meets a per-run deadline.

    The governor starts at the top of the curve (no history — racing is the
    only safe opening) and, once it has seen an interval, re-plans at every
    kernel boundary: it bounds the remaining time at a candidate ratio ``r``
    by ``remaining_kernels × longest_window × (r_max / r) ×``
    :data:`DEADLINE_SAFETY` — the longest window seen so far is never
    credited for the clock it ran at, and a slower clock is charged the full
    compute-bound stretch — then picks the slowest point whose bound still
    fits before the deadline.  Whenever nothing fits, it jumps straight back
    to the top of the curve.

    The conservative bound is what backs the property test: for a feasible
    deadline (any slack over the all-out runtime on the suite's
    near-uniform kernels) the governor never misses.
    """

    deadline_cycles: float = math.inf
    _total_kernels: int = field(default=0, repr=False)
    _kernels_done: int = field(default=0, repr=False)
    _longest_window: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if not self.deadline_cycles > 0 or math.isnan(self.deadline_cycles):
            raise ConfigError(
                f"deadline_cycles must be positive, got {self.deadline_cycles!r}"
            )

    def on_run_begin(self, total_kernels: int) -> None:
        self._total_kernels = total_kernels
        self._kernels_done = 0
        self._longest_window = 0.0

    def initial_points(self, num_gpms: int) -> list[OperatingPoint]:
        return [self.curve.points[-1]] * num_gpms

    def _plan_point(self, now: float) -> OperatingPoint:
        remaining = max(0, self._total_kernels - self._kernels_done)
        if remaining == 0:
            # Nothing left to schedule: every point meets the deadline, and
            # the slowest one is this governor's answer to "any point".
            return self.curve.points[0]
        if self._longest_window <= 0.0:
            return self.curve.points[-1]
        top = self.curve.points[-1]
        top_ratio = self.curve.frequency_ratio(top)
        budget = self.deadline_cycles - now
        for point in self.curve.points:
            stretch = top_ratio / self.curve.frequency_ratio(point)
            bound = remaining * self._longest_window * stretch * DEADLINE_SAFETY
            if bound <= budget:
                return point
        return top

    def decide_chip(
        self,
        observations: list[GpmObservation],
        now: float,
        window_cycles: float,
    ) -> list[OperatingPoint]:
        self._kernels_done += 1
        self._longest_window = max(self._longest_window, window_cycles)
        return [self._plan_point(now)] * len(observations)
