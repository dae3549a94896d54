"""The power-capping governor: power model, waterfilling, capped runs."""

import math
from dataclasses import replace

import pytest

from repro.dvfs.governor import (
    DEFAULT_GPM_ANCHOR_WATTS,
    GpmObservation,
    GpmPowerModel,
    PowerCapGovernor,
)
from repro.dvfs.operating_point import K40_OPERATING_POINT, K40_VF_CURVE
from repro.errors import ConfigError


class TestGpmPowerModel:
    def test_anchor_point_draws_anchor_watts(self):
        model = GpmPowerModel()
        watts = model.point_watts(K40_VF_CURVE, K40_OPERATING_POINT)
        assert watts == pytest.approx(DEFAULT_GPM_ANCHOR_WATTS)

    def test_point_watts_strictly_increase_along_the_ladder(self):
        model = GpmPowerModel()
        watts = [
            model.point_watts(K40_VF_CURVE, point)
            for point in K40_VF_CURVE.points
        ]
        assert all(lo < hi for lo, hi in zip(watts, watts[1:]))

    def test_chip_watts_sums_per_gpm(self):
        model = GpmPowerModel()
        points = [K40_OPERATING_POINT] * 4
        assert model.chip_watts(K40_VF_CURVE, points) == pytest.approx(
            4 * DEFAULT_GPM_ANCHOR_WATTS
        )

    def test_shares_validated(self):
        with pytest.raises(ConfigError):
            GpmPowerModel(anchor_watts=0.0)
        with pytest.raises(ConfigError):
            GpmPowerModel(idle_fraction=1.5)
        with pytest.raises(ConfigError):
            GpmPowerModel(leakage_fraction=-0.1)


class TestWaterfilling:
    def test_infinite_cap_raises_everyone_to_the_ceiling(self):
        governor = PowerCapGovernor()
        points = governor.initial_points(4)
        assert all(point == K40_VF_CURVE.anchor for point in points)

    def test_tight_cap_keeps_the_floor(self):
        model = GpmPowerModel()
        floor = K40_VF_CURVE.points[0]
        floor_watts = model.chip_watts(K40_VF_CURVE, [floor] * 4)
        governor = PowerCapGovernor(cap_watts=floor_watts * 1.01)
        points = governor.initial_points(4)
        assert all(point == floor for point in points)
        assert model.chip_watts(K40_VF_CURVE, points) <= governor.cap_watts

    def test_infeasible_cap_raises(self):
        with pytest.raises(ConfigError):
            PowerCapGovernor(cap_watts=10.0).initial_points(4)

    def test_higher_priority_gpm_gets_the_leftover_rung(self):
        # The round-based waterfill equalizes rungs; when the budget runs
        # out mid-round, the leftover rungs land on the most-utilized GPMs
        # first, so the busy GPM must sit strictly above the laziest one.
        governor = PowerCapGovernor(cap_watts=0.7 * 4 * DEFAULT_GPM_ANCHOR_WATTS)
        current = governor.initial_points(4)
        observations = [
            GpmObservation(gpm_id=i, utilization=u, current=current[i])
            for i, u in enumerate((0.95, 0.1, 0.1, 0.1))
        ]
        # Iterate a few intervals so the one-rung-per-interval climb settles.
        for _ in range(len(K40_VF_CURVE.points)):
            points = governor.decide_chip(
                observations, now=0.0, window_cycles=1000.0
            )
            observations = [
                replace(obs, current=point)
                for obs, point in zip(observations, points)
            ]
        assert points[0].frequency_hz > points[3].frequency_hz
        assert governor.chip_watts_estimate(points) <= governor.cap_watts

    def test_ties_break_by_gpm_id(self):
        model = GpmPowerModel()
        floor = K40_VF_CURVE.points[0]
        # Room for exactly one rung above the all-floor allocation.
        one_up = model.chip_watts(
            K40_VF_CURVE, [K40_VF_CURVE.points[1], floor, floor]
        )
        governor = PowerCapGovernor(cap_watts=one_up)
        points = governor._waterfill([0.5, 0.5, 0.5])
        assert points[0] == K40_VF_CURVE.points[1]
        assert points[1] == floor and points[2] == floor

    def test_never_exceeds_the_ceiling(self):
        ceiling = K40_VF_CURVE.points[3]
        governor = PowerCapGovernor(ceiling=ceiling)
        points = governor.initial_points(4)
        assert all(p.frequency_hz <= ceiling.frequency_hz for p in points)


class TestHysteresis:
    def test_climbs_one_rung_per_interval(self):
        governor = PowerCapGovernor()
        floor = K40_VF_CURVE.points[0]
        chosen = governor.decide_chip(
            [GpmObservation(gpm_id=0, utilization=1.0, current=floor)],
            now=0.0,
            window_cycles=1000.0,
        )[0]
        assert chosen == K40_VF_CURVE.points[1]

    def test_drops_to_target_immediately(self):
        model = GpmPowerModel()
        floor = K40_VF_CURVE.points[0]
        governor = PowerCapGovernor(
            cap_watts=model.chip_watts(K40_VF_CURVE, [floor])
        )
        chosen = governor.decide_chip(
            [
                GpmObservation(
                    gpm_id=0, utilization=1.0, current=K40_VF_CURVE.anchor
                )
            ],
            now=0.0,
            window_cycles=1000.0,
        )[0]
        assert chosen == floor


class TestCappedConfig:
    def test_cap_must_be_positive(self):
        from repro.gpu.config import GpuConfig

        with pytest.raises(ConfigError):
            GpuConfig(power_cap_watts=0.0)
        with pytest.raises(ConfigError):
            GpuConfig(power_cap_watts=-5.0)

    def test_cap_joins_the_label(self):
        from repro.gpu.config import table_iii_config

        config = replace(table_iii_config(4), power_cap_watts=150.0)
        assert config.label().endswith("+cap150W")

    def test_capped_run_attaches_governor_and_throttles(self):
        from repro.gpu.config import table_iii_config
        from repro.gpu.simulator import simulate
        from repro.workloads.generator import build_workload
        from repro.workloads.suite import shrunken_spec

        spec = shrunken_spec("BPROP", total_ctas=16, kernels=2)
        workload = build_workload(spec)
        config = table_iii_config(2)
        cap = 0.6 * 2 * DEFAULT_GPM_ANCHOR_WATTS
        capped = simulate(workload, replace(config, power_cap_watts=cap))
        plain = simulate(workload, config)
        assert isinstance(capped.governor, PowerCapGovernor)
        assert capped.cycles > plain.cycles
        for decision in capped.governor.trace:
            assert decision.estimated_chip_watts <= cap

    def test_infinite_cap_is_bit_identical_to_ungoverned(self):
        from repro.gpu.config import table_iii_config
        from repro.gpu.simulator import simulate
        from repro.workloads.generator import build_workload
        from repro.workloads.suite import shrunken_spec

        spec = shrunken_spec("Stream", total_ctas=16, kernels=2)
        workload = build_workload(spec)
        config = table_iii_config(2)
        plain = simulate(workload, config)
        infinite = simulate(
            workload, replace(config, power_cap_watts=math.inf)
        )
        assert infinite.counters == plain.counters
        assert infinite.cycles == plain.cycles
