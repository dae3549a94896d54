"""NVML-like sensor: quantization and short-ROI blending."""

import pytest

from repro.errors import ConfigError
from repro.power.sensor import PowerSensor, SensorConfig


class TestRoiMeasurement:
    def test_long_roi_reads_steady_state(self):
        sensor = PowerSensor(SensorConfig(quantization_w=0.0))
        reading = sensor.measure_roi(
            roi_duration_s=0.1, roi_power_w=120.0, surrounding_power_w=25.0
        )
        assert reading == pytest.approx(120.0)

    def test_short_roi_blends_with_surroundings(self):
        """The Fig. 4b BFS/MiniAMR failure mode: a 1 ms kernel inside a 15 ms
        window reads mostly surrounding power."""
        sensor = PowerSensor(SensorConfig(quantization_w=0.0))
        reading = sensor.measure_roi(
            roi_duration_s=0.0015, roi_power_w=120.0, surrounding_power_w=25.0
        )
        coverage = 0.0015 / 0.015
        expected = coverage * 120.0 + (1 - coverage) * 25.0
        assert reading == pytest.approx(expected)
        assert reading < 40.0  # far from the true 120 W

    def test_blending_monotonic_in_duration(self):
        sensor = PowerSensor(SensorConfig(quantization_w=0.0))
        readings = [
            sensor.measure_roi(duration, 120.0, 25.0)
            for duration in (0.001, 0.005, 0.012, 0.05)
        ]
        assert readings == sorted(readings)

    def test_zero_duration_rejected(self):
        with pytest.raises(ConfigError):
            PowerSensor().measure_roi(0.0, 100.0, 25.0)


class TestValidation:
    def test_bad_config(self):
        with pytest.raises(ConfigError):
            SensorConfig(refresh_period_s=0.0)
        with pytest.raises(ConfigError):
            SensorConfig(quantization_w=-1.0)
