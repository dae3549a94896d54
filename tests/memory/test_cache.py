"""Set-associative cache model behaviour."""

import pytest

from repro.errors import ConfigError
from repro.memory.cache import Cache, CacheConfig


def make_cache(capacity=4096, line=128, assoc=2, **kwargs) -> Cache:
    return Cache(
        CacheConfig(
            capacity_bytes=capacity,
            line_bytes=line,
            associativity=assoc,
            **kwargs,
        )
    )


class TestGeometry:
    def test_derived_counts(self):
        config = CacheConfig(capacity_bytes=4096, line_bytes=128, associativity=2)
        assert config.num_lines == 32
        assert config.num_sets == 16

    def test_capacity_below_line_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(capacity_bytes=64, line_bytes=128)

    def test_nonpow2_line_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(capacity_bytes=4096, line_bytes=96)

    def test_indivisible_associativity_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(capacity_bytes=4096, line_bytes=128, associativity=3)


class TestHitsAndMisses:
    def test_cold_miss_then_hit(self):
        cache = make_cache()
        hit, _ = cache.access(0x1000)
        assert not hit
        hit, _ = cache.access(0x1000)
        assert hit
        assert cache.stats.read_misses == 1
        assert cache.stats.read_hits == 1

    def test_same_line_different_offsets_hit(self):
        cache = make_cache(line=128)
        cache.access(0x1000)
        hit, _ = cache.access(0x1000 + 127)
        assert hit

    def test_lru_eviction_order(self):
        cache = make_cache(capacity=256, line=128, assoc=2)  # 1 set, 2 ways
        cache.access(0 * 128)
        cache.access(1 * 128)
        cache.access(0 * 128)       # touch 0: now MRU
        cache.access(2 * 128)       # evicts 1 (LRU)
        hit0, _ = cache.access(0 * 128)
        hit1, _ = cache.access(1 * 128)
        assert hit0
        assert not hit1
        assert cache.stats.evictions >= 1

    def test_set_conflicts(self):
        cache = make_cache(capacity=512, line=128, assoc=2)  # 2 sets
        # Lines 0, 2, 4 map to set 0 (line_number % 2).
        for line_number in (0, 2, 4):
            cache.access(line_number * 128)
        hit, _ = cache.access(0)
        assert not hit  # evicted by 4

    def test_probe_has_no_side_effects(self):
        cache = make_cache()
        assert not cache.probe(0x2000)
        cache.access(0x2000)
        assert cache.probe(0x2000)
        assert cache.stats.accesses == 1  # probe did not count

    def test_resident_lines(self):
        cache = make_cache()
        for i in range(5):
            cache.access(i * 128)  # distinct sets
        assert cache.resident_lines == 5


class TestWritePolicies:
    def test_write_no_allocate(self):
        cache = make_cache(write_allocate=False)
        cache.access(0x100, is_store=True)
        assert not cache.probe(0x100)
        assert cache.stats.write_misses == 1

    def test_write_allocate_write_back(self):
        cache = make_cache(write_allocate=True, write_back=True)
        cache.access(0x100, is_store=True)
        assert cache.probe(0x100)

    def test_dirty_eviction_reported(self):
        cache = make_cache(
            capacity=256, line=128, assoc=2, write_allocate=True, write_back=True
        )
        cache.access(0 * 128, is_store=True)   # dirty
        cache.access(1 * 128)
        _, dirty = cache.access(2 * 128)       # evicts line 0
        assert dirty
        assert cache.stats.dirty_evictions == 1

    def test_clean_eviction_not_dirty(self):
        cache = make_cache(capacity=256, line=128, assoc=2)
        cache.access(0 * 128)
        cache.access(1 * 128)
        _, dirty = cache.access(2 * 128)
        assert not dirty

    def test_store_hit_marks_dirty(self):
        cache = make_cache(
            capacity=256, line=128, assoc=2, write_allocate=True, write_back=True
        )
        cache.access(0, is_store=False)
        cache.access(0, is_store=True)   # hit; marks dirty
        cache.access(128)
        _, dirty = cache.access(256)
        assert dirty


class TestInvalidation:
    def test_invalidate_by_home(self):
        cache = make_cache()
        cache.access(0x000, home=0)   # set 0
        cache.access(0x080, home=1)   # set 1
        cache.access(0x100, home=2)   # set 2
        dropped = cache.invalidate_where(lambda home: home != 0)
        assert dropped == 2
        assert cache.probe(0x000)
        assert not cache.probe(0x080)
        assert cache.stats.invalidations == 2

    def test_flush_clears_everything(self):
        cache = make_cache()
        for i in range(4):
            cache.access(i * 128)  # distinct sets
        assert cache.flush() == 4
        assert cache.resident_lines == 0

    def test_stats_merge(self):
        a = make_cache()
        b = make_cache()
        a.access(0)
        b.access(0)
        b.access(0)
        a.stats.merge(b.stats)
        assert a.stats.read_misses == 2
        assert a.stats.read_hits == 1
