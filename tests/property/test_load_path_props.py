"""The in-place load path of ``access_segment`` against its definitions.

``GpmMemory.access_segment`` does a load's L1 lookup, its L2 lookup and fill
and a local DRAM read in place on the tag stores and the channel's server.
These properties drive random segments of loads and stores through it and
through a reference that folds the same lines with ``Cache.access`` and
``DramChannel.read``/``write`` on separate caches and a separate channel,
and require the same completion times, tag-store state, cache statistics,
channel state and queue metric, float for float.  The caches are tiny, so
evictions and dirty write-backs are common.
"""

from hypothesis import given, settings, strategies as st

from repro.gpu.counters import CounterSet
from repro.isa.program import MemAccess
from repro.memory.cache import Cache, CacheConfig
from repro.memory.dram import HBM, DramChannel
from repro.memory.hierarchy import GpmMemory, HierarchyLatencies
from repro.memory.pages import PagePlacement
from repro.sim.engine import Engine
from repro.units import CACHE_LINE_BYTES

L1 = CacheConfig(capacity_bytes=1024, associativity=2, name="l1")
L2 = CacheConfig(
    capacity_bytes=4096, associativity=4,
    write_allocate=True, write_back=True, name="l2",
)
LATENCIES = HierarchyLatencies()

#: One aligned line out of 48: a few times the L2's 32 lines.
accesses = st.builds(
    lambda line, is_store: MemAccess(
        address=line * CACHE_LINE_BYTES, size=CACHE_LINE_BYTES,
        is_store=is_store,
    ),
    st.integers(min_value=0, max_value=47),
    st.booleans(),
)
segments = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=400.0),
        st.lists(accesses, min_size=1, max_size=8),
    ),
    min_size=1,
    max_size=12,
)


def _reference_segment(l1, l2, dram, accesses, earliest):
    """Fold one segment with the definitions; single GPM, so every line is
    local (home 0)."""
    at_l2 = earliest + LATENCIES.l1
    after_l2 = at_l2 + LATENCIES.l2
    completion = earliest
    for access in accesses:
        line = access.address
        if access.is_store:
            if l2.access(line, True, 0)[1]:
                dram.write(CACHE_LINE_BYTES, at_l2)
            done = at_l2
        elif l1.access(line, False, 0)[0]:
            done = at_l2
        else:
            hit, dirty_evicted = l2.access(line, False, 0)
            if dirty_evicted:
                dram.write(CACHE_LINE_BYTES, at_l2)
            done = after_l2 if hit else dram.read(CACHE_LINE_BYTES, after_l2)
        completion = max(completion, done)
    return completion


def _cache_state(cache):
    return (cache.stats, cache._sets, cache._homes, cache._dirty)


def _dram_state(dram):
    server = dram.server
    queue = dram.engine.metrics.accumulator("dram.queue_cycles").to_json()
    return (
        server.free_at, server.busy_time, server.units_served,
        server.requests, dram.reads, dram.writes, dram.bytes_read,
        dram.bytes_written, queue,
    )


@settings(max_examples=80, deadline=None)
@given(segments=segments)
def test_load_path_matches_cache_access_and_dram_read(segments):
    engine = Engine()
    memory = GpmMemory(
        engine=engine, gpm_id=0, num_sms=1, l1_config=L1, l2_config=L2,
        dram=DramChannel(engine, HBM), placement=PagePlacement(num_gpms=1),
        counters=CounterSet(), latencies=LATENCIES,
    )
    ref_l1 = Cache(CacheConfig(
        capacity_bytes=L1.capacity_bytes, associativity=L1.associativity,
        write_allocate=False, write_back=False, name="ref.l1",
    ))
    ref_l2 = Cache(CacheConfig(
        capacity_bytes=L2.capacity_bytes, associativity=L2.associativity,
        write_allocate=True, write_back=True, name="ref.l2",
    ))
    ref_dram = DramChannel(Engine(), HBM)
    earliest = 0.0
    for gap, segment in segments:
        earliest += gap
        pending: list = []
        got = memory.access_segment(0, tuple(segment), earliest, pending)
        want = _reference_segment(ref_l1, ref_l2, ref_dram, segment, earliest)
        assert got == want
        assert pending == []
        assert _cache_state(memory.l1s[0]) == _cache_state(ref_l1)
        assert _cache_state(memory.l2) == _cache_state(ref_l2)
        assert _dram_state(memory.dram) == _dram_state(ref_dram)
