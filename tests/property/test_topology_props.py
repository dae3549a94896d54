"""Property-based routing invariants for every topology."""

from hypothesis import assume, given, settings, strategies as st

from repro.interconnect.compression import CompressedTopology, CompressionConfig
from repro.interconnect.mesh import MeshTopology
from repro.interconnect.ring import RingTopology
from repro.interconnect.switch import SwitchTopology
from repro.sim.engine import Engine

gpm_counts = st.sampled_from([2, 4, 8, 16, 32])


@st.composite
def topology_cases(draw, kinds=("ring", "mesh", "switch")):
    """(kind, n, src, dst) with endpoints drawn in range and distinct."""
    kind = draw(st.sampled_from(list(kinds)))
    n = draw(st.sampled_from([2, 4, 8, 16, 32]))
    src = draw(st.integers(min_value=0, max_value=n - 1))
    dst = draw(
        st.integers(min_value=0, max_value=n - 2).map(
            lambda d: d if d < src else d + 1
        )
    )
    return kind, n, src, dst


def build(kind, num_gpms):
    engine = Engine()
    kwargs = dict(
        per_gpm_bandwidth_gbps=256.0,
        link_latency_cycles=15.0,
        energy_pj_per_bit=0.54,
    )
    if kind == "ring":
        return RingTopology(engine, num_gpms, **kwargs)
    if kind == "mesh":
        return MeshTopology(engine, num_gpms, **kwargs)
    if kind == "compressed":
        return CompressedTopology(
            RingTopology(engine, num_gpms, **kwargs), COMPRESSION
        )
    return SwitchTopology(engine, num_gpms, **kwargs)


COMPRESSION = CompressionConfig(data_ratio=2.5)


def reference_transfer(topology, src, dst, nbytes, earliest):
    """An uncached transfer that walks ``route()`` on every call.

    Returns ``(completion_time, hops, switch_traversals)``; reserves the
    same link capacity the cached path does.
    """
    extra = 0.0
    if isinstance(topology, CompressedTopology):
        config = topology.config
        if nbytes > config.min_payload_bytes:
            nbytes = max(1, round(nbytes / config.data_ratio))
            extra = config.codec_latency_cycles
        topology = topology.inner
    links, switch_traversals = topology.route(src, dst)
    finish = 0.0
    latency = 0.0
    for link in links:
        finish = max(finish, link.reserve(nbytes, earliest=earliest))
        latency += link.config.latency_cycles
    return finish + latency + extra, len(links), switch_traversals


@st.composite
def transfer_sequences(draw):
    """(kind, n, [(src, dst, nbytes, earliest), ...]) on one topology."""
    kind = draw(st.sampled_from(["ring", "mesh", "switch", "compressed"]))
    n = draw(st.sampled_from([2, 4, 8, 16]))
    ops = []
    clock = 0.0
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = draw(st.integers(min_value=0, max_value=n - 2))
        dst = dst if dst < src else dst + 1
        nbytes = draw(st.sampled_from([32, 64, 128, 1000, 4096]))
        if draw(st.booleans()):
            clock += draw(st.floats(min_value=0.0, max_value=500.0))
            ops.append((src, dst, nbytes, clock))
        else:
            ops.append((src, dst, nbytes, None))
    return kind, n, ops


class TestRoutingInvariants:
    @given(topology_cases())
    @settings(max_examples=200, deadline=None)
    def test_route_connects_src_to_dst(self, case):
        kind, n, src, dst = case
        topology = build(kind, n)
        links, _ = topology.route(src, dst)
        assert links, "routes are never empty"
        assert links[0].src == f"gpm{src}" or links[0].src.startswith("gpm")
        if kind != "switch":
            assert links[0].src == f"gpm{src}"
            assert links[-1].dst == f"gpm{dst}"
            for a, b in zip(links, links[1:]):
                assert a.dst == b.src

    @given(topology_cases(kinds=("ring", "mesh")))
    @settings(max_examples=200, deadline=None)
    def test_hop_count_symmetric(self, case):
        kind, n, src, dst = case
        topology = build(kind, n)
        assert topology.hop_count(src, dst) == topology.hop_count(dst, src)

    @given(topology_cases(kinds=("ring", "mesh")))
    @settings(max_examples=200, deadline=None)
    def test_route_length_equals_hop_count(self, case):
        kind, n, src, dst = case
        topology = build(kind, n)
        links, _ = topology.route(src, dst)
        assert len(links) == topology.hop_count(src, dst)

    @given(gpm_counts)
    @settings(max_examples=20, deadline=None)
    def test_mesh_shrinks_diameter_and_mean_hops(self, n):
        """Individual pairs can be farther on the torus (its numbering is
        row-major, the ring's is sequential), but its diameter and average
        hop count never exceed the ring's — the property the topology study
        relies on."""
        assume(n >= 4)
        ring = build("ring", n)
        mesh = build("mesh", n)
        pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
        ring_hops = [ring.hop_count(s, d) for s, d in pairs]
        mesh_hops = [mesh.hop_count(s, d) for s, d in pairs]
        assert max(mesh_hops) <= max(ring_hops)
        assert sum(mesh_hops) <= sum(ring_hops)

    @given(topology_cases(), st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_traffic_accounting_consistent(self, case, nbytes):
        kind, n, src, dst = case
        topology = build(kind, n)
        result = topology.transfer(src, dst, nbytes)
        assert topology.traffic.bytes_injected == nbytes
        assert topology.traffic.byte_hops == nbytes * result.hops
        assert result.completion_time > 0

    @given(transfer_sequences())
    @settings(max_examples=150, deadline=None)
    def test_route_table_matches_uncached_reference(self, case):
        """Cached routes give the completion times, hops and link state an
        uncached walk of ``route()`` gives, call for call."""
        kind, n, ops = case
        cached = build(kind, n)
        reference = build(kind, n)
        for src, dst, nbytes, earliest in ops:
            route = cached.routes[src, dst]
            got = cached.transfer_time(route, nbytes, earliest)
            want, hops, switch_traversals = reference_transfer(
                reference, src, dst, nbytes, earliest
            )
            assert got == want
            assert (route.hops, route.switch_traversals) == (
                hops, switch_traversals
            )
        for mine, theirs in zip(cached.links(), reference.links()):
            assert mine.server.units_served == theirs.server.units_served
            assert mine.transfers == theirs.transfers
            assert mine.server.free_at == theirs.server.free_at
