"""Governor policies and the governed simulation path."""

from dataclasses import replace

import pytest

from repro.dvfs.governor import GpmObservation, UtilizationGovernor
from repro.dvfs.idle import IdleConfig
from repro.dvfs.operating_point import K40_OPERATING_POINT, K40_VF_CURVE


def _decide(governor, utilization):
    """The utilization governor's choice for one GPM at the anchor."""
    observation = GpmObservation(
        gpm_id=0, utilization=utilization, current=K40_OPERATING_POINT
    )
    return governor.decide_chip([observation], now=100.0, window_cycles=100.0)[0]


def _governed_config(num_gpms):
    from repro.gpu.config import table_iii_config

    return replace(
        table_iii_config(num_gpms),
        idle=IdleConfig.governor_only("utilization"),
    )


class TestUtilizationGovernor:
    def test_starts_at_anchor_by_default(self):
        governor = UtilizationGovernor()
        assert governor.initial_points(2) == [K40_VF_CURVE.anchor] * 2

    def test_high_utilization_steps_up(self):
        chosen = _decide(UtilizationGovernor(), 0.9)
        assert chosen.frequency_hz > K40_OPERATING_POINT.frequency_hz

    def test_low_utilization_steps_down(self):
        chosen = _decide(UtilizationGovernor(), 0.1)
        assert chosen.frequency_hz < K40_OPERATING_POINT.frequency_hz

    def test_middle_utilization_holds(self):
        assert _decide(UtilizationGovernor(), 0.5) is K40_OPERATING_POINT

    def test_on_interval_records_trace(self):
        governor = UtilizationGovernor()
        governor.on_chip_interval(
            [
                GpmObservation(0, 0.1, K40_OPERATING_POINT),
                GpmObservation(1, 0.9, K40_OPERATING_POINT),
            ],
            now=100.0,
            window_cycles=100.0,
        )
        assert len(governor.trace) == 2
        decision = governor.trace[0]
        assert decision.gpm_id == 0
        assert decision.utilization == 0.1
        assert decision.point.frequency_hz < K40_OPERATING_POINT.frequency_hz


class TestGovernedSimulation:
    @pytest.fixture(scope="class")
    def governed(self):
        from repro.gpu.simulator import simulate
        from repro.workloads.generator import build_workload
        from repro.workloads.suite import shrunken_spec

        spec = shrunken_spec("Stream", total_ctas=16, kernels=2)
        workload = build_workload(spec)
        result = simulate(workload, _governed_config(2))
        return result.governor, result

    def test_one_decision_per_kernel_per_gpm(self, governed):
        governor, _ = governed
        assert isinstance(governor, UtilizationGovernor)
        assert len(governor.trace) == 2 * 2  # kernels x GPMs
        assert [d.gpm_id for d in governor.trace] == [0, 1, 0, 1]

    def test_memory_bound_workload_steps_down(self, governed):
        governor, _ = governed
        # Stream idles its SMs on DRAM; the ondemand rule must not step up.
        final = [d for d in governor.trace if d.gpm_id == 0][-1].point
        assert final.frequency_hz <= K40_OPERATING_POINT.frequency_hz

    def test_residency_covers_the_run(self):
        from repro.gpu.multigpu import MultiGpu
        from repro.workloads.generator import build_workload
        from repro.workloads.suite import shrunken_spec

        spec = shrunken_spec("Stream", total_ctas=16, kernels=2)
        workload = build_workload(spec)
        gpu = MultiGpu(_governed_config(2))
        counters = gpu.run(workload)
        residency = gpu.residency()
        for gpm_id in (0, 1):
            assert residency.core[gpm_id].total_cycles == pytest.approx(
                counters.elapsed_cycles
            )
