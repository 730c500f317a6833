"""Tests for two-stage register renaming."""

import pytest

from repro.core.rename import rename_pipeline_depth
from tests.oracles.objmodel.rename import (
    GlobalRenameState,
    LocalRegisterFile,
    RenameStallError,
)


class TestGlobalRename:
    def test_allocate_tracks_mapping(self):
        state = GlobalRenameState(num_global=8, num_arch=4)
        reg, prior = state.allocate(arch_reg=1, producer_seq=0,
                                    producer_slice=2)
        assert prior is None
        mapping = state.lookup(1)
        assert mapping.global_reg == reg
        assert mapping.producer_slice == 2
        assert state.producer_slice(reg) == 2

    def test_reallocation_returns_prior(self):
        state = GlobalRenameState(num_global=8, num_arch=4)
        first, _ = state.allocate(1, 0, 0)
        second, prior = state.allocate(1, 1, 1)
        assert prior.global_reg == first
        assert state.lookup(1).global_reg == second

    def test_free_list_exhaustion(self):
        state = GlobalRenameState(num_global=4, num_arch=2)
        for i in range(4):
            state.allocate(i % 2, i, 0)
        with pytest.raises(RenameStallError):
            state.allocate(0, 5, 0)
        assert state.free_list_stalls == 1

    def test_release_recycles(self):
        state = GlobalRenameState(num_global=4, num_arch=2)
        reg, _ = state.allocate(0, 0, 0)
        free_before = state.free_count
        state.release(reg)
        assert state.free_count == free_before + 1
        assert state.producer_slice(reg) is None

    def test_rollback_restores_prior_mapping(self):
        state = GlobalRenameState(num_global=8, num_arch=4)
        first, _ = state.allocate(1, 0, 0)
        second, prior = state.allocate(1, 1, 1)
        state.rollback(1, second, prior)
        assert state.lookup(1).global_reg == first

    def test_rollback_without_prior_clears(self):
        state = GlobalRenameState(num_global=8, num_arch=4)
        reg, prior = state.allocate(1, 0, 0)
        state.rollback(1, reg, prior)
        assert state.lookup(1) is None

    def test_global_space_must_cover_arch(self):
        with pytest.raises(ValueError):
            GlobalRenameState(num_global=16, num_arch=32)


class TestLocalRegisterFile:
    def test_dst_allocation(self):
        lrf = LocalRegisterFile(capacity=2)
        assert lrf.allocate_dst(10)
        assert lrf.allocate_dst(11)
        assert not lrf.allocate_dst(12)
        assert lrf.full_stalls == 1

    def test_remote_cache_eviction_makes_room(self):
        lrf = LocalRegisterFile(capacity=2)
        lrf.allocate_remote(10)
        lrf.allocate_remote(11)
        assert lrf.allocate_dst(12)  # evicts a cached remote

    def test_dst_cannot_evict_live_dsts(self):
        lrf = LocalRegisterFile(capacity=2)
        lrf.allocate_dst(10)
        lrf.allocate_dst(11)
        assert not lrf.allocate_remote(12)

    def test_release(self):
        lrf = LocalRegisterFile(capacity=1)
        lrf.allocate_dst(10)
        lrf.release(10)
        assert lrf.allocate_dst(11)

    def test_holds_and_idempotent_alloc(self):
        lrf = LocalRegisterFile(capacity=1)
        lrf.allocate_dst(10)
        assert lrf.holds(10)
        assert lrf.allocate_dst(10)  # already resident: no new entry
        assert len(lrf) == 1

    def test_flush_remote_cache(self):
        lrf = LocalRegisterFile(capacity=4)
        lrf.allocate_dst(1)
        lrf.allocate_remote(2)
        lrf.allocate_remote(3)
        assert lrf.flush_remote_cache() == 2
        assert lrf.holds(1)
        assert not lrf.holds(2)


class TestRenameDepth:
    def test_single_slice_skips_broadcast(self):
        assert rename_pipeline_depth(1) == 1

    def test_multi_slice_pays_broadcast(self):
        """Section 3.2.1: send-to-master / broadcast / correct steps."""
        assert rename_pipeline_depth(4) == 3

    def test_invalid_slices(self):
        with pytest.raises(ValueError):
            rename_pipeline_depth(0)
