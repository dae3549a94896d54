"""Metamorphic and differential properties of residency-priced energy.

The residency pricing path (``EnergyParams.for_operating_point(...,
residency=...)``) must agree with the static pricing path wherever both are
defined:

* *metamorphic*: a run that never leaves one operating point — whether via a
  static ``DvfsConfig`` or a governor that holds one point (race-to-idle at
  the top of the curve, an infinite cap at the anchor) — prices
  **bit-identically** through its single-bucket residency and through the
  direct per-point scaling (the weighted mean of one value is that value,
  by construction);
* *differential/monotone*: tightening the power cap must never *increase*
  the reported power draw — lower operating points cost less per event and
  less constant power, so energy-over-runtime falls as the budget shrinks.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.energy_model import EnergyModel, EnergyParams
from repro.dvfs.config import DvfsConfig
from repro.dvfs.governor import DEFAULT_GPM_ANCHOR_WATTS
from repro.dvfs.idle import IdleConfig
from repro.dvfs.operating_point import K40_VF_CURVE
from repro.gpu.config import table_iii_config
from repro.gpu.simulator import simulate
from repro.workloads.generator import build_workload
from repro.workloads.suite import shrunken_spec

curve_points = st.sampled_from(K40_VF_CURVE.points)


def _small_run(workload_name: str, num_gpms: int, **config_changes):
    spec = shrunken_spec(workload_name, total_ctas=8, kernels=1)
    workload = build_workload(spec)
    config = replace(table_iii_config(num_gpms), **config_changes)
    return config, simulate(workload, config)


class TestMetamorphicStaticPricing:
    @given(point=curve_points, num_gpms=st.sampled_from([1, 2]))
    @settings(max_examples=6, deadline=None)
    def test_static_config_residency_prices_bit_identically(
        self, point, num_gpms
    ):
        spec = shrunken_spec("Stream", total_ctas=8, kernels=1)
        workload = build_workload(spec)
        config = replace(
            table_iii_config(num_gpms), dvfs=DvfsConfig.core_only(point)
        )
        result = simulate(workload, config)
        direct = EnergyParams.for_operating_point(config)
        priced = EnergyParams.for_operating_point(
            config, residency=result.residency
        )
        assert priced == direct  # bit-exact, not approx

    @pytest.mark.parametrize(
        ("config_changes", "point"),
        [
            (
                {"idle": IdleConfig.governor_only("race-to-idle")},
                K40_VF_CURVE.points[-1],
            ),
            ({"power_cap_watts": math.inf}, K40_VF_CURVE.anchor),
        ],
        ids=["race-to-idle", "infinite-cap"],
    )
    @pytest.mark.parametrize("num_gpms", [1, 2])
    def test_static_governor_residency_prices_bit_identically(
        self, config_changes, point, num_gpms
    ):
        config, result = _small_run("BPROP", num_gpms, **config_changes)
        assert result.governor is not None
        priced = EnergyParams.for_operating_point(
            config, residency=result.residency
        )
        direct = EnergyParams.for_operating_point(
            config, dvfs=DvfsConfig.core_only(point)
        )
        assert priced == direct  # bit-exact, not approx


class TestCapMonotonicity:
    @pytest.mark.parametrize("workload_name", ["Stream", "BPROP"])
    def test_tightening_the_cap_never_raises_reported_power(
        self, workload_name
    ):
        spec = shrunken_spec(workload_name, total_ctas=16, kernels=2)
        workload = build_workload(spec)
        base = table_iii_config(2)
        draws = []
        for fraction in (None, 1.0, 0.85, 0.70, 0.55):
            config = base if fraction is None else replace(
                base,
                power_cap_watts=fraction * 2 * DEFAULT_GPM_ANCHOR_WATTS,
            )
            result = simulate(workload, config)
            params = EnergyParams.for_operating_point(
                config, residency=result.residency
            )
            energy = EnergyModel(params).evaluate(
                result.counters, result.seconds
            )
            draws.append(energy.total / result.seconds)
        for looser, tighter in zip(draws, draws[1:]):
            assert tighter <= looser * (1.0 + 1e-9)

    def test_infinite_cap_draw_matches_uncapped(self):
        config, plain = _small_run("Stream", 2)
        capped_config = replace(config, power_cap_watts=math.inf)
        spec = shrunken_spec("Stream", total_ctas=8, kernels=1)
        capped = simulate(build_workload(spec), capped_config)
        plain_params = EnergyParams.for_operating_point(
            config, residency=plain.residency
        )
        capped_params = EnergyParams.for_operating_point(
            capped_config, residency=capped.residency
        )
        assert capped_params == plain_params
        plain_energy = EnergyModel(plain_params).evaluate(
            plain.counters, plain.seconds
        )
        capped_energy = EnergyModel(capped_params).evaluate(
            capped.counters, capped.seconds
        )
        assert capped_energy.total == plain_energy.total
