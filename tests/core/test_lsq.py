"""Tests for the unordered, address-banked LSQ."""

import pytest

from tests.oracles.objmodel.lsq import DistributedLSQ, LSQBank


class TestLSQBank:
    def test_capacity_and_force(self):
        bank = LSQBank(capacity=1)
        assert bank.insert(0, is_store=False, line=1, resolved_cycle=5)
        assert bank.insert(1, is_store=False, line=2, resolved_cycle=6) is None
        assert bank.full_stalls == 1
        # The ROB-head entry may exceed capacity so commit never deadlocks.
        assert bank.insert(1, is_store=False, line=2, resolved_cycle=6,
                           force=True)

    def test_forwarding_youngest_older_store(self):
        bank = LSQBank(capacity=8)
        bank.insert(1, is_store=True, line=7, resolved_cycle=5)
        bank.insert(3, is_store=True, line=7, resolved_cycle=6)
        bank.insert(4, is_store=True, line=9, resolved_cycle=6)
        fwd = bank.find_forwarding_store(load_seq=5, line=7)
        assert fwd.seq == 3  # youngest older store to the same line
        assert bank.forwards == 1

    def test_forwarding_respects_resolution_time(self):
        bank = LSQBank(capacity=8)
        bank.insert(1, is_store=True, line=7, resolved_cycle=50)
        assert bank.find_forwarding_store(5, 7, before_cycle=10) is None
        assert bank.find_forwarding_store(5, 7, before_cycle=60) is not None

    def test_store_commit_violation_detection(self):
        """Paper Figure 9: committing store checks younger loads."""
        bank = LSQBank(capacity=8)
        bank.insert(2, is_store=True, line=7, resolved_cycle=20)
        bank.insert(5, is_store=False, line=7, resolved_cycle=10)  # early load
        violators = bank.check_store_commit(store_seq=2, line=7)
        assert [v.seq for v in violators] == [5]

    def test_forwarded_load_is_not_a_violation(self):
        bank = LSQBank(capacity=8)
        bank.insert(2, is_store=True, line=7, resolved_cycle=5)
        entry = bank.insert(5, is_store=False, line=7, resolved_cycle=10)
        entry.forwarded_from = 2
        assert bank.check_store_commit(store_seq=2, line=7) == []

    def test_older_loads_are_safe(self):
        bank = LSQBank(capacity=8)
        bank.insert(1, is_store=False, line=7, resolved_cycle=3)
        bank.insert(2, is_store=True, line=7, resolved_cycle=20)
        assert bank.check_store_commit(store_seq=2, line=7) == []

    def test_squash_younger(self):
        bank = LSQBank(capacity=8)
        bank.insert(1, is_store=False, line=1, resolved_cycle=1)
        bank.insert(5, is_store=False, line=2, resolved_cycle=2)
        bank.insert(9, is_store=True, line=3, resolved_cycle=3)
        assert bank.squash_younger(4) == 2
        assert bank.occupancy() == 1


class TestDistributedLSQ:
    def test_same_line_same_home(self):
        """Section 3.5: accesses to one line always sort to one Slice, so
        no intra-VCore coherence is needed."""
        lsq = DistributedLSQ(num_slices=4)
        assert lsq.home_slice(0x100) == lsq.home_slice(0x13F)

    def test_lines_interleave_across_slices(self):
        lsq = DistributedLSQ(num_slices=4)
        homes = {lsq.home_slice(line * 64) for line in range(8)}
        assert homes == {0, 1, 2, 3}

    def test_aggregate_capacity_scales(self):
        """Section 3.6: aggregate LSQ capacity grows with Slices."""
        assert DistributedLSQ(1, bank_capacity=32).aggregate_capacity() == 32
        assert DistributedLSQ(8, bank_capacity=32).aggregate_capacity() == 256

    def test_stat_aggregation(self):
        lsq = DistributedLSQ(num_slices=2)
        bank = lsq.bank_for(0)
        bank.insert(2, is_store=True, line=0, resolved_cycle=1)
        bank.insert(5, is_store=False, line=0, resolved_cycle=0)
        bank.check_store_commit(2, 0)
        assert lsq.total_violations == 1

    def test_squash_younger_spans_banks(self):
        lsq = DistributedLSQ(num_slices=2)
        lsq.banks[0].insert(5, is_store=False, line=0, resolved_cycle=0)
        lsq.banks[1].insert(6, is_store=False, line=1, resolved_cycle=0)
        assert lsq.squash_younger(4) == 2
