"""Operating points and validated voltage/frequency curves.

The paper holds clock and voltage fixed at the Tesla K40 boost point; this
module opens that axis.  An :class:`OperatingPoint` is one (frequency,
voltage) pair; a :class:`VfCurve` is the validated table of points a clock
domain may run at, anchored at the K40 point so that the anchor operating
point reproduces the paper's configuration bit-for-bit.

The curve is the single source of truth for the V/f relationship: governors
step along it, the sweet-spot search sweeps it, and the energy model derives
its V² and f scaling ratios from it.  Points between table entries are
priced by piecewise-linear voltage interpolation — the standard approximation
for published DVFS tables (cf. "Modeling and Chasing the Energy-Efficiency
Sweet Spots in Modern GPUs").
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, replace

from repro.errors import ConfigError
from repro.units import DEFAULT_CLOCK_HZ

#: Relative tolerance for matching a frequency against a curve entry.
_FREQ_RTOL = 1e-9


@dataclass(frozen=True)
class OperatingPoint:
    """One V/f setting of a clock domain."""

    frequency_hz: float
    voltage_v: float
    name: str = ""

    def __post_init__(self) -> None:
        # Finiteness is checked explicitly: a NaN frequency or voltage slips
        # through plain comparisons (NaN <= 0 is False) and would propagate
        # into every derived ratio as NaN energy.
        if not (
            isinstance(self.frequency_hz, (int, float))
            and math.isfinite(self.frequency_hz)
            and self.frequency_hz > 0
        ):
            raise ConfigError(
                f"operating-point frequency must be finite and positive, got"
                f" {self.frequency_hz!r}"
            )
        if not (
            isinstance(self.voltage_v, (int, float))
            and math.isfinite(self.voltage_v)
            and self.voltage_v > 0
        ):
            raise ConfigError(
                f"operating-point voltage must be finite and positive, got"
                f" {self.voltage_v!r}"
            )

    def label(self) -> str:
        """Short human-readable identity (used in config labels)."""
        if self.name:
            return self.name
        return f"{self.frequency_hz / 1e6:g}MHz"

    def __repr__(self) -> str:
        return (
            f"OperatingPoint({self.frequency_hz / 1e6:g} MHz,"
            f" {self.voltage_v:g} V{', ' + self.name if self.name else ''})"
        )


@dataclass(frozen=True)
class VfCurve:
    """A validated, monotonic voltage/frequency table for one clock domain.

    Invariants enforced at construction:

    * at least two points, so stepping and interpolation are meaningful;
    * strictly increasing frequency;
    * non-decreasing voltage (higher clocks never need *less* voltage);
    * exactly one point at the anchor frequency — the fixed-clock baseline
      every ratio is computed against (the K40 boost clock by default).
    """

    points: tuple[OperatingPoint, ...]
    anchor_frequency_hz: float = DEFAULT_CLOCK_HZ

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ConfigError("a V/f curve needs at least two points")
        frequencies = [point.frequency_hz for point in self.points]
        voltages = [point.voltage_v for point in self.points]
        for prev, cur in zip(frequencies, frequencies[1:]):
            if cur <= prev:
                raise ConfigError(
                    f"V/f curve frequencies must strictly increase;"
                    f" got {prev!r} then {cur!r}"
                )
        for prev, cur in zip(voltages, voltages[1:]):
            if cur < prev:
                raise ConfigError(
                    f"V/f curve voltages must be non-decreasing;"
                    f" got {prev!r} then {cur!r}"
                )
        anchors = [
            point for point in self.points
            if self._matches(point.frequency_hz, self.anchor_frequency_hz)
        ]
        if len(anchors) != 1:
            raise ConfigError(
                f"V/f curve needs exactly one point at the anchor frequency"
                f" ({self.anchor_frequency_hz / 1e6:g} MHz), found"
                f" {len(anchors)}"
            )
        # Every ratio divides by the anchor, so it is found once here.  It
        # is an attribute, not a field: fingerprints and cache keys walk
        # the fields.
        object.__setattr__(self, "_anchor", anchors[0])

    @staticmethod
    def _matches(a: float, b: float) -> bool:
        return abs(a - b) <= _FREQ_RTOL * max(abs(a), abs(b))

    # ------------------------------------------------------------------ lookup

    @property
    def anchor(self) -> OperatingPoint:
        """The fixed-clock baseline point (K40 boost by default)."""
        return self._anchor

    @property
    def min_frequency_hz(self) -> float:
        return self.points[0].frequency_hz

    @property
    def max_frequency_hz(self) -> float:
        return self.points[-1].frequency_hz

    def voltage_at(self, frequency_hz: float) -> float:
        """Piecewise-linear voltage for a frequency within the curve span."""
        if not self.min_frequency_hz <= frequency_hz <= self.max_frequency_hz:
            raise ConfigError(
                f"frequency {frequency_hz / 1e6:g} MHz outside the curve span"
                f" [{self.min_frequency_hz / 1e6:g},"
                f" {self.max_frequency_hz / 1e6:g}] MHz"
            )
        frequencies = [point.frequency_hz for point in self.points]
        index = bisect.bisect_left(frequencies, frequency_hz)
        if index < len(frequencies) and self._matches(
            frequencies[index], frequency_hz
        ):
            return self.points[index].voltage_v
        lo, hi = self.points[index - 1], self.points[index]
        span = hi.frequency_hz - lo.frequency_hz
        fraction = (frequency_hz - lo.frequency_hz) / span
        return lo.voltage_v + fraction * (hi.voltage_v - lo.voltage_v)

    def point_at(self, frequency_hz: float, name: str = "") -> OperatingPoint:
        """The operating point (exact or interpolated) for one frequency.

        An exact table frequency returns the table entry itself, keeping its
        name (and hence its config-label identity).
        """
        voltage = self.voltage_at(frequency_hz)
        frequencies = [point.frequency_hz for point in self.points]
        index = bisect.bisect_left(frequencies, frequency_hz)
        if index < len(frequencies) and self._matches(
            frequencies[index], frequency_hz
        ):
            entry = self.points[index]
            return replace(entry, name=name) if name else entry
        return OperatingPoint(
            frequency_hz=frequency_hz, voltage_v=voltage, name=name
        )

    def contains(self, point: OperatingPoint) -> bool:
        """True when ``point`` lies within this curve's frequency span."""
        return (
            self.min_frequency_hz <= point.frequency_hz <= self.max_frequency_hz
        )

    # ---------------------------------------------------------------- stepping

    def _index_of(self, point: OperatingPoint) -> int:
        frequencies = [entry.frequency_hz for entry in self.points]
        index = bisect.bisect_left(frequencies, point.frequency_hz)
        if index < len(frequencies) and self._matches(
            frequencies[index], point.frequency_hz
        ):
            return index
        # Between entries: snap to the nearest lower table point.
        return max(0, index - 1)

    def step_down(self, point: OperatingPoint) -> OperatingPoint:
        """The next lower table point (or the floor, when already there)."""
        return self.points[max(0, self._index_of(point) - 1)]

    def step_up(self, point: OperatingPoint) -> OperatingPoint:
        """The next higher table point (or the ceiling, when already there)."""
        return self.points[min(len(self.points) - 1, self._index_of(point) + 1)]

    # ------------------------------------------------------------------ ratios

    def frequency_ratio(self, point: OperatingPoint) -> float:
        """``f / f_anchor`` — the timing scale factor of this point."""
        return point.frequency_hz / self.anchor.frequency_hz

    def voltage_ratio(self, point: OperatingPoint) -> float:
        """``V / V_anchor`` — the linear (leakage) energy scale factor."""
        return point.voltage_v / self.anchor.voltage_v


#: The Tesla K40 (GK110B) application-clock ladder.  The 745 MHz boost point
#: is the anchor every published number in this reproduction was taken at;
#: voltages follow the 28 nm part's reported DVFS range (~0.84 V at the
#: lowest application clock up to ~1.12 V at the 875 MHz ceiling).
K40_VF_CURVE = VfCurve(
    points=(
        OperatingPoint(324.0e6, 0.84, name="k40-324"),
        OperatingPoint(405.0e6, 0.86, name="k40-405"),
        OperatingPoint(480.0e6, 0.88, name="k40-480"),
        OperatingPoint(562.0e6, 0.91, name="k40-562"),
        OperatingPoint(614.0e6, 0.93, name="k40-614"),
        OperatingPoint(666.0e6, 0.96, name="k40-666"),
        OperatingPoint(705.0e6, 0.99, name="k40-705"),
        OperatingPoint(DEFAULT_CLOCK_HZ, 1.02, name="k40-boost"),
        OperatingPoint(810.0e6, 1.07, name="k40-810"),
        OperatingPoint(875.0e6, 1.12, name="k40-875"),
    ),
)

#: The anchor operating point: run everything exactly as the paper did.
K40_OPERATING_POINT = K40_VF_CURVE.anchor
