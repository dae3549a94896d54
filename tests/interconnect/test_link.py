"""Individual link behaviour and traffic counters."""

import pytest

from repro.errors import ConfigError
from repro.interconnect.link import Link, LinkConfig
from repro.interconnect.traffic import TrafficCounters
from repro.sim.engine import Engine
from repro.units import gbps_to_bytes_per_cycle


class TestLinkConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            LinkConfig(bandwidth_gbps=0.0, latency_cycles=1.0,
                       energy_pj_per_bit=1.0)
        with pytest.raises(ConfigError):
            LinkConfig(bandwidth_gbps=1.0, latency_cycles=-1.0,
                       energy_pj_per_bit=1.0)
        with pytest.raises(ConfigError):
            LinkConfig(bandwidth_gbps=1.0, latency_cycles=1.0,
                       energy_pj_per_bit=-0.5)


class TestLink:
    def make_link(self, bw=128.0):
        config = LinkConfig(
            bandwidth_gbps=bw, latency_cycles=10.0, energy_pj_per_bit=10.0
        )
        return Link(Engine(), config, src="a", dst="b")

    def test_serialization_time(self):
        link = self.make_link()
        rate = gbps_to_bytes_per_cycle(128.0)
        assert link.reserve(1024) == pytest.approx(1024 / rate)

    def test_fcfs(self):
        link = self.make_link()
        rate = gbps_to_bytes_per_cycle(128.0)
        link.reserve(1024)
        assert link.reserve(512) == pytest.approx(1536 / rate)
        assert link.queue_delay() == pytest.approx(1536 / rate)

    def test_accounting(self):
        link = self.make_link()
        link.reserve(100)
        link.reserve(200)
        assert link.server.units_served == 300
        assert link.transfers == 2

    def test_earliest(self):
        link = self.make_link()
        rate = gbps_to_bytes_per_cycle(128.0)
        finish = link.reserve(128, earliest=500.0)
        assert finish == pytest.approx(500.0 + 128 / rate)


class TestTrafficCounters:
    def test_record(self):
        traffic = TrafficCounters()
        traffic.record(nbytes=128, hops=3, switch_traversals=0)
        traffic.record(nbytes=64, hops=2, switch_traversals=1)
        assert traffic.messages == 2
        assert traffic.bytes_injected == 192
        assert traffic.byte_hops == 128 * 3 + 64 * 2
        assert traffic.switch_byte_traversals == 64

    def test_merge(self):
        a, b = TrafficCounters(), TrafficCounters()
        a.record(100, 2, 0)
        b.record(50, 4, 1)
        a.merge(b)
        assert a.messages == 2
        assert a.byte_hops == 400
        assert a.switch_byte_traversals == 50
