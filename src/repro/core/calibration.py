"""EPI/EPT calibration from power measurements (Eq. 5).

Given a microbenchmark run measured on (real or simulated) silicon, the
energy per instruction is::

    EPI = (P_active - P_idle) * ExecTime / NumInstructions

and the energy per transaction is computed the same way over the transaction
count.  These functions are the analytical heart of the Figure 3 flow; the
measurement mechanics (steady-state sampling through a 15 ms sensor) live in
:mod:`repro.power.meter`, and the end-to-end loop in
:mod:`repro.core.refinement`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import CalibrationError


@dataclass(frozen=True)
class MeasuredRun:
    """One steady-state microbenchmark measurement.

    Attributes:
        power_active_w: mean power while the benchmark's region of interest
            executes.
        power_idle_w: baseline power of the idle GPU.
        exec_time_s: region-of-interest duration.
        event_count: dynamic instructions (for EPI) or transactions (for EPT)
            retired in the region of interest.
    """

    power_active_w: float
    power_idle_w: float
    exec_time_s: float
    event_count: int

    def __post_init__(self) -> None:
        if self.exec_time_s <= 0:
            raise CalibrationError("exec_time_s must be positive")
        if self.event_count <= 0:
            raise CalibrationError("event_count must be positive")
        if self.power_active_w < 0 or self.power_idle_w < 0:
            raise CalibrationError("power readings must be non-negative")

    @property
    def dynamic_power_w(self) -> float:
        """Active-minus-idle power attributable to the stressed events."""
        return self.power_active_w - self.power_idle_w

    @property
    def dynamic_energy_j(self) -> float:
        return self.dynamic_power_w * self.exec_time_s


def estimate_epi(run: MeasuredRun) -> float:
    """Energy per instruction in joules (Eq. 5).

    Raises :class:`CalibrationError` when active power does not exceed idle —
    the benchmark failed to stress the instruction (e.g. it was optimized
    away), and a zero/negative EPI must not silently enter the table.
    """
    if run.dynamic_power_w <= 0:
        raise CalibrationError(
            "active power does not exceed idle power; the microbenchmark did"
            " not exercise the instruction"
        )
    return run.dynamic_energy_j / run.event_count


def estimate_ept(run: MeasuredRun, background_energy_j: float = 0.0) -> float:
    """Energy per memory transaction in joules.

    Memory microbenchmarks necessarily execute address-generation arithmetic
    around each access; callers subtract that known compute energy via
    ``background_energy_j`` so the estimate isolates pure data movement —
    this is the coverage-refinement step of the Figure 3 loop.
    """
    if background_energy_j < 0:
        raise CalibrationError("background energy must be non-negative")
    net = run.dynamic_energy_j - background_energy_j
    if net <= 0:
        raise CalibrationError(
            "measured energy does not exceed the compute background; the"
            " pointer chase is not stressing the intended level"
        )
    return net / run.event_count

