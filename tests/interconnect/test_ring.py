"""Bidirectional ring topology: routing, congestion, accounting."""

import pytest

from repro.errors import ConfigError
from repro.interconnect.ring import RingTopology
from repro.sim.engine import Engine
from repro.units import gbps_to_bytes_per_cycle


def make_ring(num_gpms=8, bw=256.0, latency=10.0):
    return RingTopology(
        Engine(),
        num_gpms,
        per_gpm_bandwidth_gbps=bw,
        link_latency_cycles=latency,
        energy_pj_per_bit=0.54,
    )


class TestRouting:
    def test_hop_counts_shortest_path(self):
        ring = make_ring(8)
        assert ring.hop_count(0, 1) == 1
        assert ring.hop_count(0, 7) == 1      # wraps counter-clockwise
        assert ring.hop_count(0, 4) == 4      # diameter
        assert ring.hop_count(2, 6) == 4
        assert ring.hop_count(6, 2) == 4

    def test_route_length_matches_hop_count(self):
        ring = make_ring(8)
        for src in range(8):
            for dst in range(8):
                if src == dst:
                    continue
                links, switch = ring.route(src, dst)
                assert len(links) == ring.hop_count(src, dst)
                assert switch == 0

    def test_route_is_connected(self):
        ring = make_ring(6)
        links, _ = ring.route(1, 4)
        # consecutive links share endpoints
        for first, second in zip(links, links[1:]):
            assert first.dst == second.src

    def test_link_count(self):
        ring = make_ring(8)
        assert len(ring.links()) == 16  # N clockwise + N counter-clockwise

    def test_per_gpm_bandwidth_split(self):
        ring = make_ring(4, bw=256.0)
        for link in ring.links():
            assert link.config.bandwidth_gbps == pytest.approx(128.0)


class TestTransfers:
    def test_transfer_accounting(self):
        ring = make_ring(8)
        result = ring.transfer(0, 4, 1024)
        assert result.hops == 4
        assert ring.traffic.messages == 1
        assert ring.traffic.bytes_injected == 1024
        assert ring.traffic.byte_hops == 4096

    def test_transfer_latency_scales_with_hops(self):
        rate = gbps_to_bytes_per_cycle(128.0)
        ring = make_ring(8, latency=10.0)
        near = ring.transfer(0, 1, 128)
        far = ring.transfer(2, 6, 128)   # disjoint links: no queueing
        assert near.hops == 1 and far.hops == 4
        assert near.completion_time == pytest.approx(128 / rate + 10.0)
        assert far.completion_time == pytest.approx(128 / rate + 40.0)

    def test_congestion_on_shared_link(self):
        ring = make_ring(4, bw=256.0)
        rate = gbps_to_bytes_per_cycle(128.0)
        first = ring.transfer(0, 1, 10_000)
        second = ring.transfer(0, 1, 10_000)
        assert second.completion_time - first.completion_time == pytest.approx(
            10_000 / rate
        )

    def test_opposite_directions_do_not_contend(self):
        ring = make_ring(4)
        forward = ring.transfer(0, 1, 100_000)
        backward = ring.transfer(1, 0, 100_000)
        assert backward.completion_time == pytest.approx(forward.completion_time)

    def test_self_transfer_rejected(self):
        ring = make_ring(4)
        with pytest.raises(ConfigError):
            ring.transfer(2, 2, 128)

    def test_out_of_range_rejected(self):
        ring = make_ring(4)
        with pytest.raises(ConfigError):
            ring.transfer(0, 4, 128)

    @pytest.mark.parametrize(
        "src, dst", [(2, 2), (0, 4), (4, 0), (-1, 1), (1, -1), (0, 0)]
    )
    def test_bad_endpoints_raise_after_routes_are_cached(self, src, dst):
        ring = make_ring(4)
        for a in range(4):
            for b in range(4):
                if a != b:
                    ring.transfer(a, b, 128)
        for _ in range(2):
            with pytest.raises(ConfigError):
                ring.routes[src, dst]
            with pytest.raises(ConfigError):
                ring.transfer(src, dst, 128)
        assert ring.traffic.messages == 12
        assert len(ring.routes) == 12

    def test_bottleneck_utilization(self):
        ring = make_ring(4)
        ring.transfer(0, 1, 100_000)
        assert ring.max_utilization(elapsed=1.0) == 1.0


class TestValidation:
    def test_needs_two_gpms(self):
        with pytest.raises(ConfigError):
            make_ring(1)

    def test_needs_positive_bandwidth(self):
        with pytest.raises(ConfigError):
            make_ring(4, bw=0.0)
