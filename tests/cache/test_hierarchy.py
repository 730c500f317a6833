"""Tests for the composed cache hierarchy, store buffer, and MSHRs."""

import pytest

from repro.cache.l1 import L1_HIT_LATENCY
from tests.oracles.objmodel.hierarchy import MEMORY_LATENCY, CacheHierarchy
from tests.oracles.objmodel.l1 import L1Cache
from tests.oracles.objmodel.l2 import BankedL2
from tests.oracles.objmodel.mshr import MSHRFile
from tests.oracles.objmodel.storebuffer import StoreBuffer


def _hier(banks=2, mshr=8):
    return CacheHierarchy(
        l2=BankedL2(num_banks=banks), mshr=MSHRFile(capacity=mshr)
    )


class TestAccessPath:
    def test_l1_hit_latency(self):
        h = _hier()
        h.access(0, is_write=False, now=0)  # fill
        h.tick(200)  # retire the outstanding miss
        outcome = h.access(0, is_write=False, now=200)
        assert outcome.l1_hit
        assert outcome.complete_cycle == 200 + L1_HIT_LATENCY

    def test_l2_hit_latency(self):
        h = _hier()
        h.access(0, is_write=False, now=0)
        # Evict line 0 from L1 only: touch conflicting lines.
        sets = h.l1d.num_sets
        h.access(sets * 64, is_write=False, now=1)
        h.access(2 * sets * 64, is_write=False, now=2)
        h.tick(300)
        outcome = h.access(0, is_write=False, now=300)
        assert not outcome.l1_hit
        assert outcome.l2_hit
        assert outcome.complete_cycle > 300 + L1_HIT_LATENCY
        assert outcome.complete_cycle < 300 + MEMORY_LATENCY

    def test_memory_miss_latency(self):
        h = _hier()
        outcome = h.access(0, is_write=False, now=0)
        assert outcome.latency_class == "memory"
        assert outcome.complete_cycle >= MEMORY_LATENCY

    def test_zero_l2_goes_straight_to_memory(self):
        h = _hier(banks=0)
        outcome = h.access(0, is_write=False, now=0)
        assert outcome.complete_cycle == L1_HIT_LATENCY + MEMORY_LATENCY


class TestStoreForwarding:
    def test_load_forwards_from_store_buffer(self):
        h = _hier()
        assert h.commit_store(0x100, now=5)
        outcome = h.access(0x100, is_write=False, now=6)
        assert outcome.from_store_buffer
        assert outcome.latency_class == "store_forward"

    def test_store_buffer_capacity(self):
        h = CacheHierarchy(store_buffer=StoreBuffer(capacity=2),
                           l2=BankedL2(num_banks=1))
        assert h.commit_store(0, now=0)
        assert h.commit_store(64, now=0)
        assert not h.commit_store(128, now=0)  # full

    def test_tick_drains_stores(self):
        h = CacheHierarchy(store_buffer=StoreBuffer(capacity=2),
                           l2=BankedL2(num_banks=1))
        h.commit_store(0, now=0)
        h.commit_store(64, now=0)
        h.tick(2)
        assert h.commit_store(128, now=3)  # space freed


class TestMSHRBehaviour:
    def test_secondary_miss_merges(self):
        h = _hier()
        first = h.access(0, is_write=False, now=0)
        second = h.access(8, is_write=False, now=1)  # same line, in flight
        assert second.mshr_merged
        assert second.complete_cycle <= first.complete_cycle

    def test_mshr_full_delays(self):
        h = _hier(mshr=1)
        h.access(0, is_write=False, now=0)
        outcome = h.access(64, is_write=False, now=0)  # different line
        assert outcome.mshr_stalled

    def test_tick_retires_filled_mshrs(self):
        h = _hier(mshr=1)
        first = h.access(0, is_write=False, now=0)
        h.tick(first.complete_cycle + 1)
        outcome = h.access(64, is_write=False,
                           now=first.complete_cycle + 2)
        assert not outcome.mshr_stalled


class TestFlush:
    def test_flush_all_clears_everything(self):
        h = _hier()
        h.access(0, is_write=True, now=0)
        h.commit_store(64, now=0)
        dirty = h.flush_all()
        assert dirty >= 0
        assert len(h.store_buffer) == 0
        outcome = h.access(0, is_write=False, now=100)
        assert not outcome.l1_hit
