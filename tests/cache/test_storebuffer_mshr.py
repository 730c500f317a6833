"""Tests for the store buffer and MSHR file."""

import pytest

from tests.oracles.objmodel.mshr import MSHRFile
from tests.oracles.objmodel.storebuffer import StoreBuffer


class TestStoreBuffer:
    def test_fifo_drain_order(self):
        buf = StoreBuffer(capacity=4)
        buf.push(0x100, commit_cycle=0)
        buf.push(0x200, commit_cycle=1)
        assert buf.drain_one(now=2).address == 0x100
        assert buf.drain_one(now=3).address == 0x200
        assert buf.drain_one(now=4) is None

    def test_drain_waits_a_cycle(self):
        buf = StoreBuffer()
        buf.push(0x100, commit_cycle=5)
        assert buf.drain_one(now=5) is None  # same cycle: not yet
        assert buf.drain_one(now=6) is not None

    def test_capacity_stall(self):
        buf = StoreBuffer(capacity=2)
        assert buf.push(0, 0) and buf.push(64, 0)
        assert not buf.push(128, 0)
        assert buf.full_stalls == 1

    def test_forwarding_matches_line(self):
        buf = StoreBuffer()
        buf.push(0x100, 0)
        assert buf.forwards(0x100)
        assert buf.forwards(0x108)  # same 64B line
        assert not buf.forwards(0x200)

    def test_flush(self):
        buf = StoreBuffer()
        buf.push(0, 0)
        buf.push(64, 0)
        assert buf.flush() == 2
        assert len(buf) == 0

    def test_paper_default_capacity(self):
        assert StoreBuffer().capacity == 8  # Table 2


class TestMSHRFile:
    def test_primary_then_secondary(self):
        mshr = MSHRFile(capacity=2)
        entry = mshr.allocate(0x100, fill_cycle=50, waiter_seq=1)
        merged = mshr.allocate(0x108, fill_cycle=99, waiter_seq=2)
        assert merged is entry  # same line merges
        assert merged.fill_cycle == 50  # inherits first fill
        assert mshr.primary_misses == 1
        assert mshr.secondary_merges == 1

    def test_capacity_refusal(self):
        mshr = MSHRFile(capacity=1)
        mshr.allocate(0x100, fill_cycle=50, waiter_seq=1)
        assert mshr.allocate(0x200, fill_cycle=50, waiter_seq=2) is None
        assert mshr.full_stalls == 1

    def test_retire_filled(self):
        mshr = MSHRFile(capacity=4)
        mshr.allocate(0x100, fill_cycle=10, waiter_seq=1)
        mshr.allocate(0x200, fill_cycle=20, waiter_seq=2)
        done = mshr.retire_filled(now=15)
        assert len(done) == 1
        assert done[0].line == 0x100 // 64
        assert len(mshr) == 1

    def test_earliest_fill(self):
        mshr = MSHRFile(capacity=4)
        assert mshr.earliest_fill() is None
        mshr.allocate(0x100, fill_cycle=30, waiter_seq=1)
        mshr.allocate(0x200, fill_cycle=10, waiter_seq=2)
        assert mshr.earliest_fill() == 10

    def test_lookup(self):
        mshr = MSHRFile(capacity=4)
        mshr.allocate(0x100, fill_cycle=10, waiter_seq=1)
        assert mshr.lookup(0x108) is not None
        assert mshr.lookup(0x200) is None

    def test_paper_default_capacity(self):
        assert MSHRFile().capacity == 8  # Table 2: max in-flight loads
