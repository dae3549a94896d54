"""NVML-like on-board power sensor.

The Tesla K40's board sensor refreshes roughly every 15 ms and quantizes its
readings; the paper attributes the BFS/MiniAMR validation outliers to exactly
this limitation — kernels lasting hundreds of microseconds are averaged
together with surrounding idle time inside one refresh window.

The sensor here models that mechanism directly: a measurement taken over a
short region of interest sees the quantized *window average overlapping the
ROI*, not the true ROI power.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class SensorConfig:
    """Sampling behaviour of the on-board sensor."""

    refresh_period_s: float = 15e-3
    quantization_w: float = 0.25

    def __post_init__(self) -> None:
        if self.refresh_period_s <= 0:
            raise ConfigError("refresh period must be positive")
        if self.quantization_w < 0:
            raise ConfigError("quantization must be non-negative")


class PowerSensor:
    """Window-averaging, quantizing sensor."""

    def __init__(self, config: SensorConfig | None = None):
        self.config = config or SensorConfig()

    def _quantize(self, power_w: float) -> float:
        step = self.config.quantization_w
        if step == 0:
            return power_w
        return round(power_w / step) * step

    def measure_roi(
        self,
        roi_duration_s: float,
        roi_power_w: float,
        surrounding_power_w: float,
    ) -> float:
        """Power reported for a region of interest embedded in idle time.

        Models the calibration harness's read: the ROI executes surrounded by
        ``surrounding_power_w`` (host-side gaps, launch overhead at idle
        power).  When the ROI spans many windows, the middle windows read true
        steady-state power; when it is shorter than one window the reading
        collapses toward the surroundings — the short-kernel failure mode.
        """
        if roi_duration_s <= 0:
            raise ConfigError("ROI duration must be positive")
        period = self.config.refresh_period_s
        if roi_duration_s >= 2 * period:
            # At least one fully-covered window exists; steady state is seen.
            return self._quantize(roi_power_w)
        # ROI shorter than two windows: the best available sample is one
        # window that the ROI only partially fills.
        coverage = min(roi_duration_s / period, 1.0)
        blended = coverage * roi_power_w + (1.0 - coverage) * surrounding_power_w
        return self._quantize(blended)
