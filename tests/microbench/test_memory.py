"""Pointer-chase memory microbenchmarks: the level-isolation property."""

import pytest

from repro.errors import ConfigError
from repro.microbench.memory import (
    MemoryLevel,
    MemoryMicrobenchmark,
    chase_latency_cycles,
    steps_for_steady_state,
)
from repro.units import SECTORS_PER_LINE


class TestIsolation:
    """A chase at level X must generate traffic at X and every faster
    boundary, and nothing below — this is what makes Eq. 5 solvable."""

    def test_shared_touches_nothing_global(self):
        step = MemoryMicrobenchmark(MemoryLevel.SHARED).transactions_per_step()
        assert step.shared_rf_txns == 1
        assert step.l1_rf_txns == 0
        assert step.l2_l1_txns == 0
        assert step.dram_l2_txns == 0

    def test_l1_stops_at_l1(self):
        step = MemoryMicrobenchmark(MemoryLevel.L1).transactions_per_step()
        assert step.l1_rf_txns == 1
        assert step.l2_l1_txns == 0

    def test_l2_moves_sectors(self):
        step = MemoryMicrobenchmark(MemoryLevel.L2).transactions_per_step()
        assert step.l1_rf_txns == 1
        assert step.l2_l1_txns == SECTORS_PER_LINE
        assert step.dram_l2_txns == 0

    def test_dram_moves_through_both(self):
        step = MemoryMicrobenchmark(MemoryLevel.DRAM).transactions_per_step()
        assert step.l2_l1_txns == SECTORS_PER_LINE
        assert step.dram_l2_txns == SECTORS_PER_LINE

    def test_latencies_increase_down_the_hierarchy(self):
        latencies = [
            chase_latency_cycles(level)
            for level in (MemoryLevel.SHARED, MemoryLevel.L1,
                          MemoryLevel.L2, MemoryLevel.DRAM)
        ]
        assert latencies == sorted(latencies)


class TestExecution:
    def test_counters_scale_with_steps(self):
        bench = MemoryMicrobenchmark(
            MemoryLevel.L2, steps_per_warp=100, num_sms=2, warps_per_sm=4
        )
        counters, _t = bench.execute()
        assert counters.l1_rf_txns == 100 * 8
        assert counters.l2_l1_txns == 100 * 8 * SECTORS_PER_LINE

    def test_address_arithmetic_counted(self):
        bench = MemoryMicrobenchmark(MemoryLevel.L1, steps_per_warp=100,
                                     num_sms=1, warps_per_sm=1)
        counters, _t = bench.execute()
        assert counters.total_instructions == 100  # one IADD per step

    def test_chains_shorten_latency_bound_duration(self):
        single = MemoryMicrobenchmark(MemoryLevel.L2, steps_per_warp=1000,
                                      independent_chains=1)
        quad = MemoryMicrobenchmark(MemoryLevel.L2, steps_per_warp=1000,
                                    independent_chains=4)
        _, t1 = single.execute()
        _, t4 = quad.execute()
        assert t4 == pytest.approx(t1 / 4)

    def test_dram_chase_is_bandwidth_clamped(self):
        bench = MemoryMicrobenchmark(
            MemoryLevel.DRAM, steps_per_warp=10_000,
            num_sms=15, warps_per_sm=32, independent_chains=8,
        )
        counters, t = bench.execute()
        achieved_gbps = counters.l1_rf_txns * 128 / t / 1e9
        assert achieved_gbps == pytest.approx(280.0, rel=0.01)

    def test_sm_mostly_idle_during_chase(self):
        bench = MemoryMicrobenchmark(MemoryLevel.DRAM, steps_per_warp=1000)
        counters, _t = bench.execute()
        assert counters.sm_idle_cycles > 5 * counters.sm_busy_cycles


class TestSteadyStateSizing:
    def test_sizing_meets_duration(self):
        steps = steps_for_steady_state(latency_cycles=100.0, min_seconds=0.04)
        assert steps * 100.0 / 745e6 >= 0.04

    def test_shorter_latency_needs_more_steps(self):
        assert steps_for_steady_state(10.0) > steps_for_steady_state(400.0)

    def test_bad_latency_rejected(self):
        with pytest.raises(ConfigError):
            steps_for_steady_state(0.0)
