"""DRAM channel timing and accounting."""

import pytest

from repro.errors import ConfigError
from repro.memory.dram import GDDR5, HBM, DramChannel, DramConfig
from repro.sim.engine import Engine
from repro.units import gbps_to_bytes_per_cycle


@pytest.fixture
def channel():
    return DramChannel(Engine(), HBM)


class TestPresets:
    def test_hbm_matches_table_iii(self):
        assert HBM.bandwidth_gbps == 256.0
        assert HBM.technology == "HBM"

    def test_gddr5_matches_table_ia(self):
        assert GDDR5.bandwidth_gbps == 280.0
        assert GDDR5.technology == "GDDR5"

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            DramConfig("x", bandwidth_gbps=0.0, latency_cycles=1.0,
                       capacity_bytes=1)
        with pytest.raises(ConfigError):
            DramConfig("x", bandwidth_gbps=1.0, latency_cycles=-1.0,
                       capacity_bytes=1)
        with pytest.raises(ConfigError):
            DramConfig("x", bandwidth_gbps=1.0, latency_cycles=1.0,
                       capacity_bytes=0)


class TestTiming:
    def test_read_includes_latency(self, channel):
        rate = gbps_to_bytes_per_cycle(256.0)
        done = channel.read(128)
        assert done == pytest.approx(128 / rate + HBM.latency_cycles)

    def test_write_excludes_latency(self, channel):
        rate = gbps_to_bytes_per_cycle(256.0)
        done = channel.write(128)
        assert done == pytest.approx(128 / rate)

    def test_reads_and_writes_share_bandwidth(self, channel):
        rate = gbps_to_bytes_per_cycle(256.0)
        channel.write(1024)
        done = channel.read(128)
        assert done == pytest.approx((1024 + 128) / rate + HBM.latency_cycles)

    def test_earliest_respected(self, channel):
        rate = gbps_to_bytes_per_cycle(256.0)
        done = channel.read(128, earliest=1000.0)
        assert done == pytest.approx(1000.0 + 128 / rate + HBM.latency_cycles)


class TestAccounting:
    def test_byte_counters(self, channel):
        channel.read(128)
        channel.read(128)
        channel.write(256)
        assert channel.bytes_read == 256
        assert channel.bytes_written == 256
        assert channel.reads == 2
        assert channel.writes == 1

    def test_utilization(self, channel):
        rate = gbps_to_bytes_per_cycle(256.0)
        channel.read(int(rate * 50))  # ~50 cycles of service
        assert channel.utilization(100.0) == pytest.approx(0.5, rel=0.05)
