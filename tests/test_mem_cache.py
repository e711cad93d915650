"""Tests for the set-associative cache model."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.cache import CacheConfig, SetAssociativeCache


def small_cache(size=4096, assoc=4, line=64) -> SetAssociativeCache:
    return SetAssociativeCache(CacheConfig(name="test", size_bytes=size, associativity=assoc, line_size=line))


class TestCacheConfig:
    def test_geometry(self):
        config = CacheConfig("l1", 48 * 1024, 4, 64)
        assert config.num_sets == 192
        assert config.num_lines == 768

    def test_indivisible_size_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig("bad", 1000, 4, 64)

    def test_table1_cache_sizes_valid(self):
        # Every cache of the paper's Table I must be constructible.
        CacheConfig("l1i", 48 * 1024, 4)
        CacheConfig("l1d", 48 * 1024, 4)
        CacheConfig("l2", 512 * 1024, 8)


class TestCacheBehaviour:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.access(0x100).hit
        assert cache.access(0x100).hit

    def test_same_line_different_bytes_hit(self):
        cache = small_cache()
        cache.access(0x100)
        assert cache.access(0x13F).hit  # same 64-byte line

    def test_lru_eviction_within_set(self):
        cache = small_cache(size=4 * 64, assoc=4, line=64)  # one set, 4 ways
        for way in range(4):
            cache.access(way * 64)
        cache.access(0)              # make line 0 most recently used
        result = cache.access(4 * 64)  # must evict line 1 (the LRU)
        assert result.evicted_address == 64
        assert cache.access(0).hit
        assert not cache.access(64).hit

    def test_dirty_eviction_reports_writeback(self):
        cache = small_cache(size=2 * 64, assoc=2, line=64)
        cache.access(0, write=True)
        cache.access(64)
        result = cache.access(128)  # evicts the dirty line 0
        assert result.writeback
        assert cache.stats.writebacks == 1

    def test_fill_does_not_count_access(self):
        cache = small_cache()
        cache.fill(0x200)
        assert cache.stats.accesses == 0
        assert cache.probe(0x200)

    def test_invalidate(self):
        cache = small_cache()
        cache.access(0x40)
        assert cache.invalidate(0x40)
        assert not cache.probe(0x40)

    def test_stats_hit_rate(self):
        cache = small_cache()
        cache.access(0)
        cache.access(0)
        cache.access(0)
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_occupancy(self):
        cache = small_cache(size=1024, assoc=4, line=64)
        for line in range(8):
            cache.access(line * 64)
        assert cache.occupancy == pytest.approx(0.5)


class TestCacheLocking:
    def test_locked_line_survives_eviction_pressure(self):
        cache = small_cache(size=2 * 64, assoc=2, line=64)  # one set, two ways
        cache.access(0)
        assert cache.lock(0)
        # Stream many conflicting lines through the set.
        for line in range(1, 10):
            cache.access(line * 64)
        assert cache.probe(0), "the locked line must remain resident"

    def test_fully_locked_set_bypasses_fill(self):
        cache = small_cache(size=2 * 64, assoc=2, line=64)
        cache.access(0)
        cache.access(64)
        cache.lock(0)
        cache.lock(64)
        result = cache.access(128)
        assert not result.hit
        assert not cache.probe(128)  # bypassed, nothing evicted
        assert cache.probe(0) and cache.probe(64)

    def test_unlock_restores_evictability(self):
        cache = small_cache(size=2 * 64, assoc=2, line=64)
        cache.access(0)
        cache.lock(0)
        cache.unlock(0)
        cache.access(64)
        cache.access(128)
        cache.access(192)
        assert not cache.probe(0)

    def test_lock_missing_line_returns_false(self):
        cache = small_cache()
        assert not cache.lock(0xABC0)

    def test_unlock_all_counts(self):
        cache = small_cache()
        for line in range(4):
            cache.access(line * 64)
            cache.lock(line * 64)
        assert cache.unlock_all() == 4
        assert cache.locked_lines == 0


def traced_growth(action) -> int:
    """Bytes still allocated after ``action()`` returns, per :mod:`tracemalloc`."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        action()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestLazySets:
    #: A 32 MiB, 16-way L3-sized cache: 32,768 sets.
    L3 = CacheConfig("l3", 32 * 1024 * 1024, 16)

    def test_construction_allocates_no_sets(self):
        caches = []
        assert traced_growth(lambda: caches.append(SetAssociativeCache(self.L3))) < 64 * 1024
        cache = caches[0]
        assert cache.resident_lines == 0 and cache.locked_lines == 0
        assert cache.occupancy == 0.0

    def test_probe_of_untouched_sets_allocates_nothing(self):
        cache = SetAssociativeCache(self.L3)
        cache.access(0)
        addresses = [line * 64 for line in range(1, 2048)]

        def probe_all():
            assert not any(cache.probe(address) for address in addresses)

        assert traced_growth(probe_all) < 1024
        assert cache.resident_lines == 1

    def test_whole_cache_queries_over_touched_sets(self):
        cache = small_cache(size=1024, assoc=2, line=64)  # 8 sets
        for line in (0, 8, 16, 3, 11):  # sets 0 (three lines, two ways) and 3
            cache.access(line * 64)
        cache.fill(5 * 64, locked=True)
        assert cache.lock(3 * 64)
        assert cache.resident_lines == 5
        assert cache.locked_lines == 2
        assert [cache.probe(line * 64) for line in range(17)] == [
            line in (8, 16, 3, 11, 5) for line in range(17)]
        assert cache.unlock_all() == 2
        assert cache.locked_lines == 0 and cache.unlock_all() == 0
        cache.invalidate_all()
        assert cache.resident_lines == 0
        assert not any(cache.probe(line * 64) for line in range(17))
        assert not cache.access(8 * 64).hit
        assert cache.access(8 * 64).hit


class TestCacheProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=300))
    def test_resident_lines_never_exceed_capacity(self, addresses):
        cache = small_cache(size=2048, assoc=2, line=64)
        for address in addresses:
            cache.access(address)
        assert cache.resident_lines <= cache.config.num_lines

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=300))
    def test_accesses_equal_hits_plus_misses(self, addresses):
        cache = small_cache()
        for address in addresses:
            cache.access(address)
        assert cache.stats.accesses == len(addresses)
        assert cache.stats.hits + cache.stats.misses == len(addresses)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=200))
    def test_immediate_re_access_always_hits(self, addresses):
        cache = small_cache()
        for address in addresses:
            cache.access(address)
            assert cache.access(address).hit
