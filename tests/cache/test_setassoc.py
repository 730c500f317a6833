"""Tests for the generic set-associative cache."""

import pytest

from tests.oracles.objmodel.setassoc import SetAssociativeCache


def _cache(size=1024, line=64, assoc=2):
    return SetAssociativeCache(size_bytes=size, line_size=line, assoc=assoc)


class TestBasicBehaviour:
    def test_cold_miss_then_hit(self):
        cache = _cache()
        assert cache.access(0).miss
        assert cache.access(0).hit
        assert cache.access(32).hit  # same line

    def test_distinct_lines_miss(self):
        cache = _cache()
        cache.access(0)
        assert cache.access(64).miss

    def test_miss_rate(self):
        cache = _cache()
        cache.access(0)
        cache.access(0)
        assert cache.miss_rate == 0.5

    def test_probe_does_not_disturb(self):
        cache = _cache()
        cache.access(0)
        hits_before = cache.hits
        assert cache.probe(0)
        assert not cache.probe(64)
        assert cache.hits == hits_before


class TestReplacement:
    def test_lru_eviction(self):
        # 2-way, set count = 1024/64/2 = 8 sets; lines 0, 8, 16 share set 0.
        cache = _cache()
        cache.access(0 * 64)
        cache.access(8 * 64)
        cache.access(0 * 64)       # line 0 is now MRU
        result = cache.access(16 * 64)
        assert result.evicted_line == 8  # LRU way evicted

    def test_dirty_eviction_writes_back(self):
        cache = _cache()
        cache.access(0 * 64, is_write=True)
        cache.access(8 * 64)
        result = cache.access(16 * 64)
        assert result.evicted_line == 0
        assert result.writeback
        assert cache.writebacks == 1

    def test_write_hit_marks_dirty(self):
        cache = _cache()
        cache.access(0)
        cache.access(0, is_write=True)
        cache.access(8 * 64)
        result = cache.access(16 * 64)
        assert result.evicted_dirty


class TestMaintenanceOps:
    def test_invalidate(self):
        cache = _cache()
        cache.access(0, is_write=True)
        assert cache.invalidate(0) is True  # was dirty
        assert not cache.probe(0)
        assert cache.invalidate(0) is False

    def test_flush_counts_dirty_lines(self):
        cache = _cache()
        cache.access(0, is_write=True)
        cache.access(64, is_write=True)
        cache.access(128)
        assert cache.flush() == 2
        assert cache.occupancy() == 0

    def test_prefetch_installs_without_stats(self):
        cache = _cache()
        cache.prefetch(0)
        assert cache.misses == 0
        assert cache.access(0).hit

    def test_prefetch_respects_capacity(self):
        cache = _cache()
        for i in range(4):
            cache.prefetch(i * 8 * 64)  # all map to set 0
        assert cache.occupancy() <= 2

    def test_reset_counters_keeps_content(self):
        cache = _cache()
        cache.access(0)
        cache.reset_counters()
        assert cache.misses == 0
        assert cache.access(0).hit


class TestValidation:
    def test_rejects_non_power_of_two_line(self):
        with pytest.raises(ValueError):
            _cache(line=60)

    def test_rejects_cache_smaller_than_ways(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(size_bytes=64, line_size=64, assoc=2)

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            _cache(size=0)
