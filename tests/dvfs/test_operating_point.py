"""Operating points and V/f curve validation, lookup, and stepping."""

import dataclasses

import pytest

from repro.dvfs.operating_point import (
    K40_OPERATING_POINT,
    K40_VF_CURVE,
    OperatingPoint,
    VfCurve,
)
from repro.errors import ConfigError
from repro.units import DEFAULT_CLOCK_HZ


def curve(*pairs, anchor=DEFAULT_CLOCK_HZ) -> VfCurve:
    return VfCurve(
        points=tuple(OperatingPoint(f, v) for f, v in pairs),
        anchor_frequency_hz=anchor,
    )


class TestOperatingPoint:
    def test_positive_frequency_required(self):
        with pytest.raises(ConfigError):
            OperatingPoint(0.0, 1.0)

    def test_positive_voltage_required(self):
        with pytest.raises(ConfigError):
            OperatingPoint(500e6, -0.9)

    def test_label_prefers_name(self):
        assert OperatingPoint(500e6, 0.9, name="mid").label() == "mid"
        assert OperatingPoint(500e6, 0.9).label() == "500MHz"


class TestCurveValidation:
    def test_needs_two_points(self):
        with pytest.raises(ConfigError):
            VfCurve(points=(K40_OPERATING_POINT,))

    def test_frequencies_strictly_increase(self):
        with pytest.raises(ConfigError):
            curve((DEFAULT_CLOCK_HZ, 1.0), (DEFAULT_CLOCK_HZ, 1.1))

    def test_voltages_non_decreasing(self):
        with pytest.raises(ConfigError):
            curve((300e6, 1.0), (DEFAULT_CLOCK_HZ, 0.9))

    def test_anchor_point_required(self):
        with pytest.raises(ConfigError):
            curve((300e6, 0.8), (400e6, 0.9))

    def test_k40_curve_anchored_at_boost(self):
        assert K40_VF_CURVE.anchor is K40_OPERATING_POINT
        assert K40_OPERATING_POINT.frequency_hz == DEFAULT_CLOCK_HZ
        assert K40_OPERATING_POINT.name == "k40-boost"

    def test_anchor_is_found_once_and_is_not_a_field(self, monkeypatch):
        built = curve((300e6, 0.8), (DEFAULT_CLOCK_HZ, 1.0), (900e6, 1.1))
        assert dataclasses.replace(built).anchor is built.points[1]
        assert [f.name for f in dataclasses.fields(built)] == [
            "points", "anchor_frequency_hz"
        ]

        def no_scan(*_args):
            pytest.fail("the anchor was searched for again")

        monkeypatch.setattr(VfCurve, "_matches", staticmethod(no_scan))
        assert built.anchor is built.points[1]
        assert built.frequency_ratio(built.points[2]) == 900e6 / DEFAULT_CLOCK_HZ
        assert built.voltage_ratio(built.points[0]) == 0.8 / 1.0


class TestLookup:
    def test_voltage_at_table_entry_exact(self):
        assert K40_VF_CURVE.voltage_at(562.0e6) == 0.91

    def test_voltage_interpolates_between_entries(self):
        # Halfway between 324 MHz/0.84 V and 405 MHz/0.86 V.
        mid = (324.0e6 + 405.0e6) / 2
        assert K40_VF_CURVE.voltage_at(mid) == pytest.approx(0.85)

    def test_voltage_outside_span_rejected(self):
        with pytest.raises(ConfigError):
            K40_VF_CURVE.voltage_at(100e6)
        with pytest.raises(ConfigError):
            K40_VF_CURVE.voltage_at(1000e6)

    def test_point_at_exact_keeps_table_name(self):
        point = K40_VF_CURVE.point_at(480.0e6)
        assert point.name == "k40-480"
        assert point == K40_VF_CURVE.points[2]

    def test_point_at_interpolated_is_anonymous(self):
        point = K40_VF_CURVE.point_at(500.0e6)
        assert point.name == ""
        assert 0.88 < point.voltage_v < 0.91

    def test_contains_uses_frequency_span(self):
        assert K40_VF_CURVE.contains(OperatingPoint(500e6, 5.0))
        assert not K40_VF_CURVE.contains(OperatingPoint(100e6, 0.9))


class TestStepping:
    def test_step_up_and_down_adjacent(self):
        mid = K40_VF_CURVE.point_at(562.0e6)
        assert K40_VF_CURVE.step_up(mid).frequency_hz == 614.0e6
        assert K40_VF_CURVE.step_down(mid).frequency_hz == 480.0e6

    def test_step_down_saturates_at_floor(self):
        floor = K40_VF_CURVE.points[0]
        assert K40_VF_CURVE.step_down(floor) is floor

    def test_step_up_saturates_at_ceiling(self):
        ceiling = K40_VF_CURVE.points[-1]
        assert K40_VF_CURVE.step_up(ceiling) is ceiling

    def test_between_entries_snaps_to_lower(self):
        between = K40_VF_CURVE.point_at(500.0e6)  # between 480 and 562
        assert K40_VF_CURVE.step_down(between).frequency_hz == 405.0e6
        assert K40_VF_CURVE.step_up(between).frequency_hz == 562.0e6


class TestRatios:
    def test_anchor_ratios_exactly_one(self):
        assert K40_VF_CURVE.frequency_ratio(K40_OPERATING_POINT) == 1.0
        assert K40_VF_CURVE.voltage_ratio(K40_OPERATING_POINT) == 1.0

    def test_off_anchor_ratios(self):
        low = K40_VF_CURVE.points[0]
        assert K40_VF_CURVE.frequency_ratio(low) == pytest.approx(
            324.0e6 / DEFAULT_CLOCK_HZ
        )
        assert K40_VF_CURVE.voltage_ratio(low) == pytest.approx(0.84 / 1.02)
