"""GPM memory path: L1/L2/DRAM routing, transactions, and remote accesses."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.gpu.counters import CounterSet
from repro.interconnect.ring import RingTopology
from repro.isa.opcodes import MemSpace
from repro.isa.program import MemAccess
from repro.memory.cache import CacheConfig
from repro.memory.dram import DramChannel, HBM
from repro.memory.hierarchy import GpmMemory, HierarchyLatencies
from repro.memory.pages import PagePlacement
from repro.sim.engine import Engine
from repro.units import SECTORS_PER_LINE

from tests.conftest import access_one


def build_gpm(engine, gpm_id=0, num_gpms=1, placement=None, counters=None):
    placement = placement or PagePlacement(num_gpms=num_gpms)
    counters = counters if counters is not None else CounterSet()
    memory = GpmMemory(
        engine=engine,
        gpm_id=gpm_id,
        num_sms=2,
        l1_config=CacheConfig(capacity_bytes=4096, associativity=4, name="l1"),
        l2_config=CacheConfig(
            capacity_bytes=64 * 1024,
            associativity=16,
            write_allocate=True,
            write_back=True,
            name="l2",
        ),
        dram=DramChannel(engine, HBM, name=f"dram{gpm_id}"),
        placement=placement,
        counters=counters,
    )
    return memory


@pytest.fixture
def engine():
    return Engine()


class TestLocalLoads:
    def test_l1_hit_after_fill(self, engine):
        memory = build_gpm(engine)
        memory.connect(None, [memory])
        access = MemAccess(address=0x1000, size=128)
        t1, ev1 = access_one(memory, 0, access, earliest=0.0)
        t2, ev2 = access_one(memory, 0, access, earliest=t1)
        assert not ev1 and not ev2
        # Second access is an L1 hit: just L1 latency beyond its start.
        assert t2 - t1 == pytest.approx(memory.latencies.l1)
        assert memory.counters.l1_hits == 1
        assert memory.counters.l1_misses == 1

    def test_transaction_counts_on_full_miss(self, engine):
        counters = CounterSet()
        memory = build_gpm(engine, counters=counters)
        memory.connect(None, [memory])
        access_one(memory, 0, MemAccess(address=0, size=128), earliest=0.0)
        assert counters.l1_rf_txns == 1
        assert counters.l2_l1_txns == SECTORS_PER_LINE
        assert counters.dram_l2_txns == SECTORS_PER_LINE

    def test_l2_hit_counts_no_dram(self, engine):
        counters = CounterSet()
        memory = build_gpm(engine, counters=counters)
        memory.connect(None, [memory])
        # SM 0 fills L2; SM 1 misses its own L1 but hits the shared L2.
        access_one(memory, 0, MemAccess(address=0, size=128), earliest=0.0)
        dram_before = counters.dram_l2_txns
        access_one(memory, 1, MemAccess(address=0, size=128), earliest=0.0)
        assert counters.dram_l2_txns == dram_before
        assert counters.l2_hits == 1

    def test_shared_memory_never_leaves_sm(self, engine):
        counters = CounterSet()
        memory = build_gpm(engine, counters=counters)
        access = MemAccess(address=0x40, size=128, space=MemSpace.SHARED)
        t, events = access_one(memory, 0, access, earliest=5.0)
        assert not events
        assert t == pytest.approx(5.0 + memory.latencies.shared)
        assert counters.shared_rf_txns == 1
        assert counters.l1_rf_txns == 0

    def test_local_counted(self, engine):
        counters = CounterSet()
        memory = build_gpm(engine, counters=counters)
        memory.connect(None, [memory])
        access_one(memory, 0, MemAccess(address=0, size=128), earliest=0.0)
        assert counters.local_accesses == 1
        assert counters.remote_accesses == 0


class TestStores:
    def test_store_returns_quickly(self, engine):
        memory = build_gpm(engine)
        memory.connect(None, [memory])
        access = MemAccess(address=0x2000, size=128, is_store=True)
        t, events = access_one(memory, 0, access, earliest=0.0)
        assert not events
        assert t == pytest.approx(memory.latencies.l1)

    def test_store_writes_through_to_l2(self, engine):
        counters = CounterSet()
        memory = build_gpm(engine, counters=counters)
        memory.connect(None, [memory])
        access_one(memory, 0, MemAccess(address=0, size=128, is_store=True), 0.0)
        assert counters.l2_l1_txns == SECTORS_PER_LINE
        assert memory.l2.probe(0)   # write-allocate at L2

    def test_dirty_writeback_generates_dram_traffic(self, engine):
        counters = CounterSet()
        memory = build_gpm(engine, counters=counters)
        memory.connect(None, [memory])
        # Fill one L2 set (16 ways) with dirty lines, then overflow it.
        sets = memory.l2.config.num_sets
        for way in range(17):
            address = way * sets * 128
            access_one(memory, 0, MemAccess(address=address, size=128, is_store=True), 0.0)
        assert counters.dirty_writebacks >= 1
        assert counters.dram_l2_txns >= SECTORS_PER_LINE


class TestRemoteAccess:
    def _pair(self, engine):
        counters = CounterSet()
        placement = PagePlacement(num_gpms=2)
        gpm0 = build_gpm(engine, 0, 2, placement, counters)
        gpm1 = build_gpm(engine, 1, 2, placement, counters)
        topology = RingTopology(
            engine, 2, per_gpm_bandwidth_gbps=256.0,
            link_latency_cycles=10.0, energy_pj_per_bit=0.54,
        )
        gpm0.connect(topology, [gpm0, gpm1])
        gpm1.connect(topology, [gpm0, gpm1])
        return gpm0, gpm1, counters, placement

    def test_remote_load_runs_as_process(self, engine):
        gpm0, gpm1, counters, placement = self._pair(engine)
        placement.home(0x100000, toucher_gpm=1)  # page homed remotely
        t, events = access_one(gpm0, 0, MemAccess(address=0x100000, size=128), 0.0)
        assert len(events) == 1
        engine.run()
        assert events[0].triggered
        assert counters.remote_accesses == 1
        assert counters.inter_gpm_bytes > 0
        assert counters.inter_gpm_byte_hops >= counters.inter_gpm_bytes

    def test_remote_store_bypasses_local_l2(self, engine):
        gpm0, gpm1, counters, placement = self._pair(engine)
        placement.home(0x100000, toucher_gpm=1)
        t, events = access_one(gpm0, 
            0, MemAccess(address=0x100000, size=128, is_store=True), 0.0
        )
        assert not events  # fire-and-forget
        engine.run()
        assert not gpm0.l2.probe(0x100000)   # never cached locally
        assert gpm1.dram.bytes_written > 0

    def test_remote_load_fills_local_l2(self, engine):
        gpm0, gpm1, counters, placement = self._pair(engine)
        placement.home(0x100000, toucher_gpm=1)
        _t, events = access_one(gpm0, 0, MemAccess(address=0x100000, size=128), 0.0)
        engine.run()
        assert gpm0.l2.probe(0x100000)

    def test_remote_served_from_home_l2_when_present(self, engine):
        gpm0, gpm1, counters, placement = self._pair(engine)
        # GPM 1 touches the line first: homed there and resident in its L2.
        access_one(gpm1, 0, MemAccess(address=0x100000, size=128), 0.0)
        engine.run()
        dram_reads_before = gpm1.dram.reads
        _t, events = access_one(gpm0, 0, MemAccess(address=0x100000, size=128), 0.0)
        engine.run()
        assert gpm1.dram.reads == dram_reads_before  # served from home L2

    def test_remote_without_topology_raises(self, engine):
        counters = CounterSet()
        placement = PagePlacement(num_gpms=2)
        gpm0 = build_gpm(engine, 0, 2, placement, counters)
        gpm0.connect(None, [gpm0])
        placement.home(0x100000, toucher_gpm=1)
        access_one(gpm0, 0, MemAccess(address=0x100000, size=128), 0.0)
        with pytest.raises(ConfigError):
            engine.run()

    def test_remote_store_without_topology_raises(self, engine):
        counters = CounterSet()
        placement = PagePlacement(num_gpms=2)
        gpm0 = build_gpm(engine, 0, 2, placement, counters)
        gpm0.connect(None, [gpm0])
        placement.home(0x100000, toucher_gpm=1)
        # The store itself completes when its data leaves the SM; the drain
        # finds the missing interconnect on its first engine step.
        done, events = access_one(gpm0, 
            0, MemAccess(address=0x100000, size=128, is_store=True), 0.0
        )
        assert done == gpm0.latencies.l1 and not events
        with pytest.raises(ConfigError):
            engine.run()


class TestAccessSegment:
    """One hand-built segment through ``access_segment``, pinned to literals.

    The literals were recorded by folding :meth:`GpmMemory.access` over the
    same accesses one at a time, before segments were priced in one call.
    """

    #: Counters of GPM 0 and GPM 1 after setup, segment and drain.
    COUNTERS = (
        dict(
            shared_rf_txns=1, l1_rf_txns=25, l2_l1_txns=92, dram_l2_txns=20,
            inter_gpm_bytes=448, inter_gpm_byte_hops=448,
            local_accesses=22, remote_accesses=3, l1_hits=1, l1_misses=6,
            l2_hits=1, l2_misses=5, dirty_writebacks=2,
        ),
        dict(dram_l2_txns=12),
    )

    def _setup(self, engine):
        placement = PagePlacement(num_gpms=2)
        gpms = [
            build_gpm(engine, gpm_id, 2, placement, CounterSet())
            for gpm_id in range(2)
        ]
        topology = RingTopology(
            engine, 2, per_gpm_bandwidth_gbps=256.0,
            link_latency_cycles=10.0, energy_pj_per_bit=0.54,
        )
        for gpm in gpms:
            gpm.connect(topology, gpms)
        for address in (0x30000, 0x100000, 0x110000):
            placement.home(address, toucher_gpm=1)
        gpm0 = gpms[0]
        # 16 dirty lines fill L2 set 0; SM 0 holds 0x8080 in its L1, and
        # SM 1's load leaves 0x9080 in the shared L2 only.
        for way in range(16):
            access_one(gpm0, 0, MemAccess(way * 4096, 128, is_store=True), 0.0)
        access_one(gpm0, 0, MemAccess(0x8080, 128), 0.0)
        access_one(gpm0, 1, MemAccess(0x9080, 128), 0.0)
        engine.run()
        segment = (
            MemAccess(0x40, 128, space=MemSpace.SHARED),
            MemAccess(0x8080, 128),                    # L1 hit
            MemAccess(0x9080, 128),                    # L1 miss, L2 hit
            # Unaligned, two lines: a first-touch local line, then the
            # first line of a remote page.
            MemAccess(0x30000 - 0x40, 128),
            MemAccess(0x10000, 128, is_store=True),    # evicts a dirty line
            MemAccess(0x100080, 128),                  # remote load
            MemAccess(0x110000, 128, is_store=True),   # remote store
        )
        return gpms, topology, segment

    def _check(self, engine, gpms, topology, completion, pending):
        assert completion == 454.3725
        fired = [None] * len(pending)

        def waiter(index, event):
            yield event
            fired[index] = engine.now

        for index, event in enumerate(pending):
            engine.process(waiter(index, event))
        engine.run()
        assert fired == [475.30375000000004, 476.04875000000004]
        for gpm, expected in zip(gpms, self.COUNTERS):
            counters = dataclasses.asdict(gpm.counters)
            del counters["per_gpm"], counters["instructions"]
            assert counters == {**dict.fromkeys(counters, 0), **expected}
        dram0, dram1 = gpms[0].dram, gpms[1].dram
        assert (dram0.reads, dram0.writes, dram0.server.free_at) == (
            3, 2, 155.1175
        )
        assert (dram1.reads, dram1.writes, dram1.server.free_at) == (
            2, 1, 164.93125
        )
        assert dataclasses.astuple(gpms[0].l2.stats) == (1, 5, 0, 17, 2, 2, 0)
        assert dataclasses.astuple(gpms[0].l1s[0].stats) == (1, 5, 0, 0, 0, 0, 0)
        assert dataclasses.astuple(topology.traffic) == (5, 448, 448, 0)
        # 13 memory-path events, plus a start step and a resume per waiter.
        assert engine.events_processed == 13 + 2 * len(pending)

    def test_segment_in_one_call(self, engine):
        gpms, topology, segment = self._setup(engine)
        pending = []
        completion = gpms[0].access_segment(0, segment, engine.now + 4.0, pending)
        self._check(engine, gpms, topology, completion, pending)

    def test_local_prefix_ends_on_the_l2_hit(self, engine):
        # Shared access, L1 hit and L2 hit: the L2 hit returns last, after
        # the L1 and L2 pipeline latencies.
        gpms, _topology, segment = self._setup(engine)
        pending = []
        completion = gpms[0].access_segment(0, segment[:3], 4.0, pending)
        assert completion == 4.0 + 30.0 + 120.0 and not pending

    def test_fold_of_single_accesses(self, engine):
        gpms, topology, segment = self._setup(engine)
        earliest = engine.now + 4.0
        completion, pending = earliest, []
        for access in segment:
            done, events = access_one(gpms[0], 0, access, earliest)
            completion = max(completion, done)
            pending.extend(events)
        self._check(engine, gpms, topology, completion, pending)


class TestLatencyValidation:
    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError):
            HierarchyLatencies(l1=-1.0)
