"""Link compression stage."""

import pytest

from repro.errors import ConfigError
from repro.interconnect.compression import CompressedTopology, CompressionConfig
from repro.interconnect.ring import RingTopology
from repro.sim.engine import Engine


def make_compressed(ratio=2.0, num_gpms=4, **kwargs):
    engine = Engine()
    ring = RingTopology(
        engine, num_gpms, per_gpm_bandwidth_gbps=128.0,
        link_latency_cycles=10.0, energy_pj_per_bit=10.0,
    )
    return CompressedTopology(ring, CompressionConfig(data_ratio=ratio, **kwargs))


class TestConfig:
    def test_ratio_below_one_rejected(self):
        with pytest.raises(ConfigError):
            CompressionConfig(data_ratio=0.5)

    def test_enabled_flag(self):
        assert not CompressionConfig(data_ratio=1.0).enabled
        assert CompressionConfig(data_ratio=2.0).enabled

    def test_negative_costs_rejected(self):
        with pytest.raises(ConfigError):
            CompressionConfig(codec_pj_per_byte=-1.0)
        with pytest.raises(ConfigError):
            CompressionConfig(codec_latency_cycles=-1.0)


class TestTransfers:
    def test_payloads_shrink_on_the_wire(self):
        topology = make_compressed(ratio=2.0)
        topology.transfer(0, 1, 1024)
        assert topology.traffic.bytes_injected == 512
        assert topology.codec_bytes == 1024
        assert topology.compressed_messages == 1

    def test_small_payloads_bypass(self):
        topology = make_compressed(ratio=2.0, min_payload_bytes=64)
        topology.transfer(0, 1, 32)  # request header
        assert topology.traffic.bytes_injected == 32
        assert topology.codec_bytes == 0

    def test_disabled_is_passthrough(self):
        topology = make_compressed(ratio=1.0)
        topology.transfer(0, 1, 1024)
        assert topology.traffic.bytes_injected == 1024
        assert topology.codec_bytes == 0

    def test_codec_latency_added(self):
        plain = make_compressed(ratio=1.0)
        compressed = make_compressed(ratio=2.0, codec_latency_cycles=8.0)
        t_plain = plain.transfer(0, 1, 1024).completion_time
        t_comp = compressed.transfer(0, 1, 1024).completion_time
        # Half the serialization, plus 8 cycles of codec.
        assert t_comp < t_plain + 8.0
        assert t_comp > 8.0

    def test_routing_delegates(self):
        topology = make_compressed()
        links, traversals = topology.route(0, 2)
        assert len(links) == 2
        assert traversals == 0
        assert len(topology.links()) == 8


class TestGpuIntegration:
    def test_compressed_config_runs(self):
        import dataclasses

        from repro.gpu.config import BandwidthSetting, table_iii_config
        from repro.gpu.multigpu import MultiGpu
        from tests.conftest import tiny_workload

        base = table_iii_config(2, BandwidthSetting.BW_2X)
        config = dataclasses.replace(
            base, compression=CompressionConfig(data_ratio=2.0)
        )
        gpu = MultiGpu(config)
        counters = gpu.run(tiny_workload(num_ctas=32))
        assert isinstance(gpu.topology, CompressedTopology)
        # Counter plumbed through for the energy model.
        assert counters.compression_codec_bytes == gpu.topology.codec_bytes

    def test_energy_params_pick_up_codec_cost(self):
        import dataclasses

        from repro.core.energy_model import EnergyParams
        from repro.gpu.config import BandwidthSetting, table_iii_config

        base = table_iii_config(2, BandwidthSetting.BW_2X)
        config = dataclasses.replace(
            base, compression=CompressionConfig(data_ratio=2.0,
                                                codec_pj_per_byte=3.0)
        )
        params = EnergyParams.for_config(config)
        assert params.codec_pj_per_byte == pytest.approx(3.0)
        assert EnergyParams.for_config(base).codec_pj_per_byte == 0.0
