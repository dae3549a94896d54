"""In-place FCFS reservations against ``BandwidthServer.reserve``.

``DramChannel._service`` and ``Topology.transfer_time`` repeat the
reservation arithmetic of :meth:`BandwidthServer.reserve` in place on their
servers, and the topology folds :meth:`TrafficCounters.record` in place too.
These properties drive random reservation sequences through both and through
a reference that calls ``reserve`` and ``record``, and require the same
completion times, server state and traffic totals, float for float.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.interconnect.compression import CompressedTopology, CompressionConfig
from repro.interconnect.ring import RingTopology
from repro.interconnect.switch import SwitchTopology
from repro.interconnect.traffic import TrafficCounters
from repro.memory.dram import GDDR5, HBM, DramChannel
from repro.sim.engine import Engine
from repro.sim.resources import BandwidthServer

#: ``earliest`` relative to the clock: None, now, or some cycles ahead.
earliest_offsets = st.one_of(
    st.none(), st.just(0.0), st.floats(min_value=0.0, max_value=500.0)
)
#: Cycles the clock advances before an operation.
clock_steps = st.floats(min_value=0.0, max_value=200.0)
sizes = st.one_of(
    st.sampled_from([32, 128]), st.integers(min_value=0, max_value=4096)
)


def server_state(server):
    return (server.free_at, server.busy_time, server.units_served, server.requests)


def _earliest(engine, offset):
    return None if offset is None else engine.now + offset


@settings(max_examples=60, deadline=None)
@given(
    preset=st.sampled_from([HBM, GDDR5]),
    ops=st.lists(
        st.tuples(st.booleans(), sizes, earliest_offsets, clock_steps),
        min_size=1,
        max_size=40,
    ),
)
def test_dram_service_matches_reserve(preset, ops):
    engine = Engine()
    dram = DramChannel(engine, preset, name="dram")
    reference = BandwidthServer(engine, dram.server.rate, name="ref")
    queued = []
    for is_read, nbytes, offset, step in ops:
        engine.now += step
        earliest = _earliest(engine, offset)
        arrival = engine.now if earliest is None else earliest
        finish = reference.reserve(nbytes, earliest)
        queued.append(max(0.0, finish - nbytes / reference.rate - arrival))
        if is_read:
            done = dram.read(nbytes, earliest)
            assert done == finish + preset.latency_cycles
        else:
            assert dram.write(nbytes, earliest) == finish
        assert server_state(dram.server) == server_state(reference)
    queue = engine.metrics.accumulator("dram.queue_cycles")
    assert queue.count == len(queued)
    assert queue.maximum == max(queued)
    assert queue.minimum == min(queued)


def test_dram_negative_size_raises_and_reserves_nothing():
    engine = Engine()
    dram = DramChannel(engine, HBM)
    before = server_state(dram.server)
    for call in (dram.read, dram.write):
        with pytest.raises(SimulationError, match="negative reservation"):
            call(-1)
    assert server_state(dram.server) == before


COMPRESSION = CompressionConfig(data_ratio=2.5)


def build_topology(kind, engine, num_gpms):
    kwargs = dict(
        per_gpm_bandwidth_gbps=256.0,
        link_latency_cycles=15.0,
        energy_pj_per_bit=0.54,
    )
    if kind == "switch":
        return SwitchTopology(engine, num_gpms, **kwargs)
    ring = RingTopology(engine, num_gpms, **kwargs)
    if kind == "compressed":
        return CompressedTopology(ring, COMPRESSION)
    return ring


def reference_transfer(topology, traffic, src, dst, nbytes, earliest):
    """The transfer as ``BandwidthServer.reserve`` plus ``record`` price it."""
    extra = 0.0
    if isinstance(topology, CompressedTopology):
        config = topology.config
        if nbytes > config.min_payload_bytes:
            nbytes = max(1, round(nbytes / config.data_ratio))
            extra = config.codec_latency_cycles
        topology = topology.inner
    route = topology.routes[src, dst]
    finish = 0.0
    for server in route.servers:
        done = server.reserve(nbytes, earliest)
        if done > finish:
            finish = done
    traffic.record(nbytes, route.hops, route.switch_traversals)
    return finish + route.latency + extra


@st.composite
def transfer_cases(draw):
    kind = draw(st.sampled_from(["ring", "switch", "compressed"]))
    n = draw(st.sampled_from([2, 4, 8]))
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = draw(st.integers(min_value=0, max_value=n - 2))
        dst = dst if dst < src else dst + 1
        ops.append(
            (src, dst, draw(sizes), draw(earliest_offsets), draw(clock_steps))
        )
    return kind, n, ops


def link_states(topology):
    return [server_state(link.server) for link in topology.links()]


@settings(max_examples=60, deadline=None)
@given(case=transfer_cases())
def test_transfer_time_matches_reserve(case):
    kind, n, ops = case
    engine, ref_engine = Engine(), Engine()
    topology = build_topology(kind, engine, n)
    reference = build_topology(kind, ref_engine, n)
    ref_traffic = TrafficCounters()
    for src, dst, nbytes, offset, step in ops:
        engine.now += step
        ref_engine.now = engine.now
        earliest = _earliest(engine, offset)
        completion = topology.transfer_time(
            topology.routes[src, dst], nbytes, earliest
        )
        expected = reference_transfer(
            reference, ref_traffic, src, dst, nbytes, earliest
        )
        assert completion == expected
        assert link_states(topology) == link_states(reference)
        assert topology.traffic == ref_traffic


@pytest.mark.parametrize("kind", ["ring", "switch", "compressed"])
def test_negative_transfer_raises_and_reserves_nothing(kind):
    engine = Engine()
    topology = build_topology(kind, engine, 4)
    route = topology.routes[0, 2]
    before = link_states(topology)
    with pytest.raises(SimulationError, match="negative reservation"):
        topology.transfer_time(route, -1)
    assert link_states(topology) == before
    assert topology.traffic == TrafficCounters()
