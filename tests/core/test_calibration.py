"""Eq. 5 calibration math."""

import pytest

from repro.core.calibration import MeasuredRun, estimate_epi, estimate_ept
from repro.errors import CalibrationError


def run_with(power_active=100.0, power_idle=25.0, time_s=1.0, events=10**9):
    return MeasuredRun(
        power_active_w=power_active,
        power_idle_w=power_idle,
        exec_time_s=time_s,
        event_count=events,
    )


class TestMeasuredRun:
    def test_dynamic_quantities(self):
        run = run_with()
        assert run.dynamic_power_w == pytest.approx(75.0)
        assert run.dynamic_energy_j == pytest.approx(75.0)

    def test_validation(self):
        with pytest.raises(CalibrationError):
            run_with(time_s=0.0)
        with pytest.raises(CalibrationError):
            run_with(events=0)
        with pytest.raises(CalibrationError):
            run_with(power_active=-1.0)


class TestEstimateEpi:
    def test_equation_five(self):
        # (100 - 25) W * 1 s / 1e9 instructions = 75 nJ/instruction.
        assert estimate_epi(run_with()) == pytest.approx(75e-9)

    def test_known_epi_recovered(self):
        """Construct a measurement from a known EPI and recover it."""
        epi = 0.06e-9
        events = 5 * 10**11
        time_s = 0.5
        dynamic_power = epi * events / time_s
        run = run_with(
            power_active=25.0 + dynamic_power, time_s=time_s, events=events
        )
        assert estimate_epi(run) == pytest.approx(epi)

    def test_no_dynamic_power_rejected(self):
        with pytest.raises(CalibrationError):
            estimate_epi(run_with(power_active=25.0))
        with pytest.raises(CalibrationError):
            estimate_epi(run_with(power_active=20.0))


class TestEstimateEpt:
    def test_background_subtraction(self):
        run = run_with(events=10**9)  # 75 J dynamic
        raw = estimate_ept(run)
        refined = estimate_ept(run, background_energy_j=25.0)
        assert raw == pytest.approx(75e-9)
        assert refined == pytest.approx(50e-9)

    def test_background_exceeding_energy_rejected(self):
        with pytest.raises(CalibrationError):
            estimate_ept(run_with(), background_energy_j=100.0)

    def test_negative_background_rejected(self):
        with pytest.raises(CalibrationError):
            estimate_ept(run_with(), background_energy_j=-1.0)

