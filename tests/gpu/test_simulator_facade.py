"""RunResult derived metrics and facade conveniences."""

import pytest

from repro.dvfs.operating_point import K40_OPERATING_POINT
from repro.dvfs.residency import DvfsResidency
from repro.gpu.counters import CounterSet
from repro.gpu.simulator import RunResult


def result_with(busy=600.0, idle=200.0, cycles=1000.0, clock=745e6):
    counters = CounterSet()
    counters.sm_busy_cycles = busy
    counters.sm_idle_cycles = idle
    counters.elapsed_cycles = cycles
    return RunResult(
        workload_name="w",
        config_label="1-GPM",
        counters=counters,
        residency=DvfsResidency.static_run(
            cycles, [K40_OPERATING_POINT], K40_OPERATING_POINT,
            K40_OPERATING_POINT,
        ),
        clock_hz=clock,
    )


class TestRunResult:
    def test_seconds_derivation(self):
        result = result_with(cycles=745e6)
        assert result.seconds == pytest.approx(1.0)
        assert result.cycles == pytest.approx(745e6)

    def test_utilization(self):
        result = result_with(busy=600.0, idle=200.0)
        assert result.sm_utilization == pytest.approx(0.75)

    def test_utilization_empty(self):
        result = result_with(busy=0.0, idle=0.0)
        assert result.sm_utilization == 0.0

    def test_repr_readable(self):
        text = repr(result_with())
        assert "w" in text and "util" in text
