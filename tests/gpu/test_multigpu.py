"""Multi-GPM assembly and workload driver integration."""

import pytest

from repro.gpu.config import TopologyKind
from repro.gpu.multigpu import MultiGpu
from repro.gpu.simulator import simulate
from repro.interconnect.ring import RingTopology
from repro.interconnect.switch import SwitchTopology

from tests.conftest import small_config, tiny_workload


class TestAssembly:
    def test_single_gpm_has_no_topology(self):
        gpu = MultiGpu(small_config(num_gpms=1))
        assert gpu.topology is None
        assert len(gpu.gpms) == 1

    def test_ring_topology_built(self):
        gpu = MultiGpu(small_config(num_gpms=4))
        assert isinstance(gpu.topology, RingTopology)

    def test_switch_topology_built(self):
        gpu = MultiGpu(small_config(num_gpms=4, topology=TopologyKind.SWITCH))
        assert isinstance(gpu.topology, SwitchTopology)

    def test_gpms_share_placement(self):
        gpu = MultiGpu(small_config(num_gpms=2))
        assert gpu.gpms[0].memory.placement is gpu.gpms[1].memory.placement


class TestExecution:
    def test_runs_to_completion(self):
        gpu = MultiGpu(small_config(num_gpms=2))
        counters = gpu.run(tiny_workload())
        assert counters.elapsed_cycles > 0
        assert counters.total_instructions > 0
        assert counters.sm_busy_cycles > 0

    def test_kernel_stats_recorded(self):
        gpu = MultiGpu(small_config(num_gpms=2))
        gpu.run(tiny_workload(kernels=3))
        assert len(gpu.kernel_stats) == 3
        for stats in gpu.kernel_stats:
            assert stats.cycles > 0
        # kernels run back to back
        for first, second in zip(gpu.kernel_stats, gpu.kernel_stats[1:]):
            assert second.start_cycle == pytest.approx(first.end_cycle)

    def test_instruction_count_independent_of_gpm_count(self):
        workload = tiny_workload(num_ctas=8)
        one = MultiGpu(small_config(num_gpms=1)).run(workload)
        four = MultiGpu(small_config(num_gpms=4)).run(tiny_workload(num_ctas=8))
        assert one.total_instructions == four.total_instructions
        assert one.l1_rf_txns == four.l1_rf_txns

    def test_multi_gpm_faster_than_single(self):
        workload = tiny_workload(num_ctas=32, kernels=2)
        slow = MultiGpu(small_config(num_gpms=1)).run(workload)
        fast = MultiGpu(small_config(num_gpms=4)).run(
            tiny_workload(num_ctas=32, kernels=2)
        )
        assert fast.elapsed_cycles < slow.elapsed_cycles

    def test_interconnect_counters_match_topology(self):
        gpu = MultiGpu(small_config(num_gpms=4))
        counters = gpu.run(tiny_workload(num_ctas=32))
        assert counters.inter_gpm_bytes == gpu.topology.traffic.bytes_injected
        assert counters.inter_gpm_byte_hops == gpu.topology.traffic.byte_hops

    def test_idle_plus_busy_equals_sm_cycles(self):
        config = small_config(num_gpms=2)
        gpu = MultiGpu(config)
        counters = gpu.run(tiny_workload())
        total_sm_cycles = counters.elapsed_cycles * config.total_sms
        assert counters.sm_busy_cycles + counters.sm_idle_cycles == pytest.approx(
            total_sm_cycles
        )

    def test_determinism(self):
        a = MultiGpu(small_config(num_gpms=2)).run(tiny_workload())
        b = MultiGpu(small_config(num_gpms=2)).run(tiny_workload())
        assert a.elapsed_cycles == b.elapsed_cycles
        assert a.instructions == b.instructions
        assert a.dram_l2_txns == b.dram_l2_txns


class TestSimulatorFacade:
    def test_run_result_fields(self):
        result = simulate(tiny_workload(), small_config(num_gpms=2))
        assert result.workload_name == "tiny"
        assert result.cycles > 0
        assert result.seconds > 0
        assert 0.0 <= result.sm_utilization <= 1.0
        assert len(result.kernel_stats) == 1

    def test_seconds_consistent_with_clock(self):
        config = small_config(num_gpms=1)
        result = simulate(tiny_workload(), config)
        assert result.seconds == pytest.approx(
            result.cycles / config.gpm.clock_hz
        )

    def test_simulator_reusable(self):
        config = small_config(num_gpms=2)
        first = simulate(tiny_workload(), config)
        second = simulate(tiny_workload(), config)
        assert first.cycles == second.cycles
