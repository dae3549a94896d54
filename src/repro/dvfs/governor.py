"""DVFS governors: policies that pick core operating points at runtime.

A governor steers each GPM's *core* domain while a workload runs.  The
configuration chooses it — ``GpuConfig.power_cap_watts`` or the governor
kind of ``GpuConfig.idle`` (see :func:`repro.dvfs.idle.governor_for`) — so
a governed run stays a pure function of its (workload, configuration) pair
and shares the sweep cache like any other.  The driver
(:class:`~repro.gpu.multigpu.MultiGpu`) consults it at every kernel
boundary — the natural synchronization point of the bulk-synchronous
workloads — through :meth:`Governor.on_chip_interval`, handing it every
GPM's issue-stage utilization over the interval just finished (the same
busy/idle counters the ``MetricsRegistry`` profile view reports).  The
governor answers with the points to run the next interval at and keeps a
decision trace, which ``RunResult.governor.trace`` exposes for analysis.

Two policies live here:

* :class:`UtilizationGovernor` is the classic interval-based ondemand rule:
  step up the V/f ladder when the SMs are issue-bound, step down when they
  mostly idle on memory — the behaviour that turns memory-bound phases into
  energy savings at near-zero delay cost.
* :class:`PowerCapGovernor` enforces a chip-level watt budget across all
  GPMs, waterfilling operating points by utilization each interval.

The idle-aware policies (race-to-idle, deadline-paced) live in
:mod:`repro.dvfs.idle`.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

from repro.dvfs.operating_point import K40_VF_CURVE, OperatingPoint, VfCurve
from repro.errors import ConfigError


@dataclass(frozen=True)
class GovernorDecision:
    """One governor consultation: what was observed and what was chosen."""

    at_cycle: float
    gpm_id: int
    window_cycles: float
    utilization: float
    point: OperatingPoint
    #: Chip-level worst-case power estimate for the chosen allocation (W);
    #: 0.0 for governors without a power model.
    estimated_chip_watts: float = 0.0


@dataclass(frozen=True)
class GpmObservation:
    """What the driver observed about one GPM over the interval just closed."""

    gpm_id: int
    utilization: float
    current: OperatingPoint


@dataclass
class Governor(abc.ABC):
    """Base class for chip-level core-domain DVFS policies."""

    curve: VfCurve = field(default_factory=lambda: K40_VF_CURVE)
    trace: list[GovernorDecision] = field(default_factory=list, repr=False)

    def on_run_begin(self, total_kernels: int) -> None:
        """Called once before the workload launches (kernel count known).

        Pacing policies need the run's shape up front; interval policies
        ignore it, so the default is a no-op.
        """

    @abc.abstractmethod
    def initial_points(self, num_gpms: int) -> list[OperatingPoint]:
        """The points every GPM starts the workload at."""

    @abc.abstractmethod
    def decide_chip(
        self,
        observations: list[GpmObservation],
        now: float,
        window_cycles: float,
    ) -> list[OperatingPoint]:
        """Pick every GPM's next point from the interval just closed."""

    def chip_watts_estimate(self, points: list[OperatingPoint]) -> float:
        """Worst-case chip power of an allocation (0.0 without a model)."""
        return 0.0

    def on_chip_interval(
        self,
        observations: list[GpmObservation],
        now: float,
        window_cycles: float,
    ) -> list[OperatingPoint]:
        """Driver entry point: decide for the chip, record, return points."""
        points = self.decide_chip(observations, now, window_cycles)
        estimated = self.chip_watts_estimate(points)
        for obs, point in zip(observations, points):
            self.trace.append(
                GovernorDecision(
                    at_cycle=now,
                    gpm_id=obs.gpm_id,
                    window_cycles=window_cycles,
                    utilization=obs.utilization,
                    point=point,
                    estimated_chip_watts=estimated,
                )
            )
        return points


#: Issue-busy share of an interval at or above which a GPM steps one rung up.
HIGH_WATERMARK: float = 0.75
#: Issue-busy share at or below which a GPM steps one rung down.
LOW_WATERMARK: float = 0.35


@dataclass
class UtilizationGovernor(Governor):
    """Interval-based ondemand policy over the issue-stage utilization.

    Every GPM starts at the curve's anchor.  When a GPM's SMs were
    issue-busy at least :data:`HIGH_WATERMARK` of the last interval, its
    core steps one rung up the curve (it is compute-bound: frequency buys
    delay).  When they were busy at most :data:`LOW_WATERMARK`, it steps one
    rung down (it is memory/stall-bound: frequency buys nothing but V²
    energy).  In between, the point holds.
    """

    def initial_points(self, num_gpms: int) -> list[OperatingPoint]:
        return [self.curve.anchor] * num_gpms

    def decide_chip(
        self,
        observations: list[GpmObservation],
        now: float,
        window_cycles: float,
    ) -> list[OperatingPoint]:
        curve = self.curve
        points = []
        for obs in observations:
            if obs.utilization >= HIGH_WATERMARK:
                points.append(curve.step_up(obs.current))
            elif obs.utilization <= LOW_WATERMARK:
                points.append(curve.step_down(obs.current))
            else:
                points.append(obs.current)
        return points


#: Default worst-case per-GPM power at the anchor point: a 250 W board
#: budget split over the four-module building block the paper scales from.
DEFAULT_GPM_ANCHOR_WATTS: float = 62.5


@dataclass(frozen=True)
class GpmPowerModel:
    """Worst-case per-GPM power as a function of its core operating point.

    The shape mirrors the energy model's constant-power split: an idle share
    (leakage ∝ V plus idle clocking ∝ f·V²) and a dynamic share (switching
    ∝ f·V²).  ``point_watts`` evaluates the *full-utilization* draw — the
    power-capping governor budgets against the worst case so a utilization
    spike inside an interval can never blow the cap.
    """

    anchor_watts: float = DEFAULT_GPM_ANCHOR_WATTS
    idle_fraction: float = 0.4
    leakage_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.anchor_watts <= 0:
            raise ConfigError(
                f"anchor_watts must be positive, got {self.anchor_watts!r}"
            )
        for name in ("idle_fraction", "leakage_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(
                    f"{name} is a share in [0, 1]; got {value!r}"
                )

    def point_watts(self, curve: VfCurve, point: OperatingPoint) -> float:
        """Worst-case (full-utilization) watts of one GPM at ``point``.

        Strictly increasing along a validated V/f ladder — both the static
        and the dynamic share grow with frequency and voltage — which is
        what makes the waterfilling allocation's budget check sufficient.
        """
        freq = curve.frequency_ratio(point)
        volt = curve.voltage_ratio(point)
        static = (
            self.leakage_fraction * volt
            + (1.0 - self.leakage_fraction) * freq * (volt * volt)
        )
        dynamic = freq * (volt * volt)
        return self.anchor_watts * (
            self.idle_fraction * static + (1.0 - self.idle_fraction) * dynamic
        )

    def chip_watts(
        self, curve: VfCurve, points: list[OperatingPoint]
    ) -> float:
        """Worst-case chip power of one allocation (summed in GPM order)."""
        total = 0.0
        for point in points:
            total += self.point_watts(curve, point)
        return total


#: Weight of the newest interval in the capping governor's utilization EMA.
POWER_CAP_SMOOTHING: float = 0.5


@dataclass
class PowerCapGovernor(Governor):
    """Chip-level power capping: waterfill points by utilization under a cap.

    Every interval the governor recomputes a *target* allocation: starting
    from the bottom of the curve, it raises GPMs one rung at a time —
    most-utilized first, ties broken by GPM id — as long as the chip's
    worst-case power stays within ``cap_watts``, never above ``ceiling``
    (the anchor point by default, so an infinite cap reproduces the
    ungoverned run bit-for-bit).

    Two hysteresis mechanisms damp oscillation: utilization is smoothed with
    an exponential moving average (:data:`POWER_CAP_SMOOTHING`), and a GPM
    climbs at most one rung per interval toward its target.  Downward moves
    apply immediately — the cap is a hard constraint, so every chosen
    allocation satisfies ``chip_watts(chosen) <= cap_watts`` at every
    interval.
    """

    cap_watts: float = math.inf
    power_model: GpmPowerModel = field(default_factory=GpmPowerModel)
    ceiling: OperatingPoint | None = None
    _smoothed: dict[int, float] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.cap_watts > 0:
            raise ConfigError(
                f"cap_watts must be positive, got {self.cap_watts!r}"
            )
        if self.ceiling is not None and not self.curve.contains(self.ceiling):
            raise ConfigError(
                f"ceiling point {self.ceiling!r} lies outside the governor"
                " curve"
            )

    @property
    def ceiling_point(self) -> OperatingPoint:
        return self.ceiling if self.ceiling is not None else self.curve.anchor

    # -------------------------------------------------------------- allocation

    def chip_watts_estimate(self, points: list[OperatingPoint]) -> float:
        return self.power_model.chip_watts(self.curve, points)

    def _waterfill(self, priorities: list[float]) -> list[OperatingPoint]:
        """Budget-feasible allocation: raise rungs by priority under the cap.

        Round-based waterfilling: each pass offers every GPM one rung, in
        descending priority order (ties by GPM id), accepting a raise only
        when the whole chip still fits the budget.  The returned allocation
        therefore always satisfies ``chip_watts(points) <= cap_watts`` —
        including at the all-floor start, which :meth:`initial_points`
        validates against the cap.
        """
        curve = self.curve
        ceiling_hz = self.ceiling_point.frequency_hz
        points = [curve.points[0]] * len(priorities)
        order = sorted(
            range(len(priorities)), key=lambda idx: (-priorities[idx], idx)
        )
        raised = True
        while raised:
            raised = False
            for idx in order:
                current = points[idx]
                if current.frequency_hz >= ceiling_hz:
                    continue
                upper = curve.step_up(current)
                if upper.frequency_hz > ceiling_hz:
                    continue
                points[idx] = upper
                if self.power_model.chip_watts(curve, points) <= self.cap_watts:
                    raised = True
                else:
                    points[idx] = current
        return points

    def initial_points(self, num_gpms: int) -> list[OperatingPoint]:
        floor = self.curve.points[0]
        floor_watts = self.power_model.chip_watts(
            self.curve, [floor] * num_gpms
        )
        if floor_watts > self.cap_watts:
            raise ConfigError(
                f"cap {self.cap_watts:g} W is infeasible: {num_gpms} GPMs draw"
                f" {floor_watts:g} W even at the floor point {floor.label()}"
            )
        # Uniform priorities: with no load history, waterfill round-robin.
        return self._waterfill([1.0] * num_gpms)

    # --------------------------------------------------------------- decisions

    def decide_chip(
        self,
        observations: list[GpmObservation],
        now: float,
        window_cycles: float,
    ) -> list[OperatingPoint]:
        priorities = []
        for obs in observations:
            previous = self._smoothed.get(obs.gpm_id, obs.utilization)
            smoothed = (
                POWER_CAP_SMOOTHING * obs.utilization
                + (1.0 - POWER_CAP_SMOOTHING) * previous
            )
            self._smoothed[obs.gpm_id] = smoothed
            priorities.append(smoothed)
        targets = self._waterfill(priorities)
        chosen: list[OperatingPoint] = []
        for obs, target in zip(observations, targets):
            current = obs.current
            if target.frequency_hz < current.frequency_hz:
                # Over-budget GPMs drop to target immediately: the cap is hard.
                chosen.append(target)
            elif target.frequency_hz > current.frequency_hz:
                # Climb one rung per interval (hysteresis against thrash);
                # step_up never overshoots target, so the budget still holds.
                chosen.append(self.curve.step_up(current))
            else:
                chosen.append(current)
        return chosen
