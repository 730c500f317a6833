"""Randomized model-based tests for the set-associative cache.

A reference LRU model (one ``OrderedDict`` per set, exactly the
documented replacement policy) is driven in lock-step with
:class:`SetAssociativeCache` under seeded random access streams.  The
seed comes from ``REPRO_PROPERTY_SEED`` when set (CI logs a fresh one
per run) and otherwise stays fixed for reproducibility.
"""

import os
import random
from collections import OrderedDict

import pytest

from tests.oracles.objmodel.setassoc import SetAssociativeCache

SEED = int(os.environ.get("REPRO_PROPERTY_SEED", "20140301"))

GEOMETRIES = [
    # (size_bytes, line_size, assoc)
    (1024, 64, 1),      # direct-mapped
    (2048, 64, 2),
    (4096, 64, 4),
    (4096, 32, 8),
    (512, 64, 8),       # fully associative (one set)
]


class ReferenceLRU:
    """Independent reimplementation of the documented policy."""

    def __init__(self, size_bytes, line_size, assoc):
        self.line_size = line_size
        self.assoc = assoc
        self.num_sets = (size_bytes // line_size) // assoc
        self.sets = {}
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def access(self, address, is_write):
        line = address // self.line_size
        ways = self.sets.setdefault(line % self.num_sets, OrderedDict())
        if line in ways:
            self.hits += 1
            ways[line] |= is_write
            ways.move_to_end(line)
            return True, None
        self.misses += 1
        victim = None
        if len(ways) >= self.assoc:
            victim, dirty = ways.popitem(last=False)
            if dirty:
                self.writebacks += 1
        ways[line] = is_write
        return False, victim

    def resident(self):
        return sorted(l for ways in self.sets.values() for l in ways)


@pytest.mark.parametrize("size,line,assoc", GEOMETRIES)
def test_matches_reference_model_under_random_stream(size, line, assoc):
    rng = random.Random(SEED ^ hash((size, line, assoc)))
    cache = SetAssociativeCache(size, line_size=line, assoc=assoc)
    ref = ReferenceLRU(size, line_size=line, assoc=assoc)
    # address pool ~2x the cache's line capacity: plenty of conflicts
    pool = [rng.randrange(0, 4 * size) for _ in range(64)]
    for _ in range(4000):
        address = rng.choice(pool)
        is_write = rng.random() < 0.3
        result = cache.access(address, is_write=is_write)
        ref_hit, ref_victim = ref.access(address, is_write)
        assert result.hit == ref_hit
        assert result.evicted_line == ref_victim
    assert cache.hits == ref.hits
    assert cache.misses == ref.misses
    assert cache.writebacks == ref.writebacks
    assert sorted(cache.resident_lines()) == ref.resident()


def test_hit_after_fill():
    rng = random.Random(SEED)
    cache = SetAssociativeCache(2048, assoc=2)
    for _ in range(1000):
        address = rng.randrange(0, 1 << 20)
        cache.access(address)
        assert cache.access(address).hit  # immediate re-access must hit


def test_lru_eviction_order_follows_touch_order():
    rng = random.Random(SEED + 1)
    assoc = 4
    cache = SetAssociativeCache(64 * assoc, line_size=64, assoc=assoc)
    # One set: fill with `assoc` lines, touch in random order, then
    # insert fresh lines - evictions must come back in touch order.
    lines = list(range(assoc))
    for l in lines:
        cache.access(l * 64)
    touch_order = lines[:]
    rng.shuffle(touch_order)
    for l in touch_order:
        assert cache.access(l * 64).hit
    evicted = []
    for i in range(assoc):
        result = cache.access((assoc + i) * 64)
        assert result.miss
        evicted.append(result.evicted_line)
    assert evicted == touch_order


def test_occupancy_never_exceeds_capacity():
    rng = random.Random(SEED + 2)
    cache = SetAssociativeCache(1024, assoc=2)
    capacity = 1024 // 64
    for _ in range(2000):
        cache.access(rng.randrange(0, 1 << 16))
        assert cache.occupancy() <= capacity


def test_writeback_only_on_dirty_eviction():
    rng = random.Random(SEED + 3)
    cache = SetAssociativeCache(512, assoc=1)  # direct-mapped, tiny
    dirty = set()
    writebacks = 0
    for _ in range(3000):
        address = rng.randrange(0, 1 << 14)
        is_write = rng.random() < 0.5
        line = cache.line_of(address)
        result = cache.access(address, is_write=is_write)
        if result.evicted_line is not None:
            was_dirty = result.evicted_line in dirty
            assert result.evicted_dirty == was_dirty
            assert result.writeback == was_dirty
            writebacks += was_dirty
            dirty.discard(result.evicted_line)
        if is_write:
            dirty.add(line)
    assert cache.writebacks == writebacks


def test_invalidate_then_access_misses():
    rng = random.Random(SEED + 4)
    cache = SetAssociativeCache(4096, assoc=4)
    for _ in range(500):
        address = rng.randrange(0, 1 << 18)
        cache.access(address, is_write=rng.random() < 0.5)
        assert cache.probe(address)
        cache.invalidate(address)
        assert not cache.probe(address)
        assert cache.access(address).miss
        cache.invalidate(address)
