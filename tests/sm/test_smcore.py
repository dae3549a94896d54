"""SM core resource accounting."""

import pytest

from repro.errors import ConfigError
from repro.gpu.counters import CounterSet
from repro.isa.opcodes import MemSpace
from repro.isa.program import MemAccess
from repro.memory.cache import CacheConfig
from repro.memory.dram import DramChannel, HBM
from repro.memory.hierarchy import GpmMemory
from repro.memory.pages import PagePlacement
from repro.sim.engine import Engine
from repro.sm.smcore import SmCore

from tests.conftest import access_one


def build_sm(engine, issue_rate=4.0):
    counters = CounterSet()
    memory = GpmMemory(
        engine=engine, gpm_id=0, num_sms=1,
        l1_config=CacheConfig(capacity_bytes=4096, associativity=4, name="l1"),
        l2_config=CacheConfig(capacity_bytes=64 * 1024, associativity=16,
                              write_allocate=True, write_back=True, name="l2"),
        dram=DramChannel(engine, HBM),
        placement=PagePlacement(num_gpms=1),
        counters=counters,
    )
    memory.connect(None, [memory])
    return SmCore(engine=engine, sm_id=0, gpm_id=0, local_index=0,
                  issue_rate=issue_rate, memory=memory, counters=counters)


class TestIssueAccounting:
    def test_busy_tracks_reservations(self):
        engine = Engine()
        sm = build_sm(engine)
        sm.issue.reserve(16)
        assert sm.busy_cycles() == pytest.approx(4.0)
        assert sm.idle_cycles(elapsed=10.0) == pytest.approx(6.0)

    def test_idle_clamped(self):
        engine = Engine()
        sm = build_sm(engine)
        sm.issue.reserve(100)
        assert sm.idle_cycles(elapsed=1.0) == 0.0

    def test_invalid_issue_rate(self):
        engine = Engine()
        with pytest.raises(ConfigError):
            build_sm(engine, issue_rate=0.0)


class TestMemoryPort:
    def test_routes_through_own_l1(self):
        engine = Engine()
        sm = build_sm(engine)
        access = MemAccess(address=0x1000, size=128)
        t1, _ = access_one(sm.memory, sm.local_index, access, earliest=0.0)
        t2, _ = access_one(sm.memory, sm.local_index, access, earliest=t1)
        assert sm.counters.l1_hits == 1

    def test_shared_space_access(self):
        engine = Engine()
        sm = build_sm(engine)
        access = MemAccess(address=0, size=128, space=MemSpace.SHARED)
        t, events = access_one(sm.memory, sm.local_index, access, earliest=10.0)
        assert not events
        assert t == pytest.approx(10.0 + 25.0)
        assert sm.counters.shared_rf_txns == 1

    def test_repr(self):
        engine = Engine()
        sm = build_sm(engine)
        assert "sm=0" in repr(sm)
