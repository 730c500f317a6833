"""Tests for VCore composition and reconfiguration costs."""

import pytest

from repro.core.config import SimConfig
from repro.core.reconfig import ReconfigurationEngine
from tests.oracles.objmodel.vcore import VCore


def _vcore(slices=4, cache_kb=256.0):
    return VCore(SimConfig().with_vcore(slices, cache_kb))


class TestVCoreComposition:
    def test_structures_scale_with_slices(self):
        vcore = _vcore(slices=4)
        assert len(vcore.slices) == 4
        assert vcore.rob.total_capacity == 4 * 64
        assert vcore.lsq.aggregate_capacity() == 4 * 32

    def test_l2_banks_match_config(self):
        assert _vcore(cache_kb=512).l2.num_banks == 8
        assert _vcore(cache_kb=0).l2.num_banks == 0

    def test_pc_based_fetch_assignment(self):
        """Section 3.1: the same PC always fetches on the same Slice."""
        vcore = _vcore(slices=4)
        for pc in range(64):
            assert vcore.slice_for_fetch(pc) == vcore.slice_for_fetch(pc)
        # Pairs of PCs share a Slice; consecutive pairs rotate.
        assert vcore.slice_for_fetch(0) == vcore.slice_for_fetch(1)
        assert vcore.slice_for_fetch(2) != vcore.slice_for_fetch(0)

    def test_operand_latency_paper_model(self):
        vcore = _vcore(slices=8)
        assert vcore.operand_latency(0, 0) == 0
        assert vcore.operand_latency(0, 1) == 2
        assert vcore.operand_latency(0, 4) == 5

    def test_global_rename_sized_for_max_slices(self):
        """Section 3.2: sized for the maximum (8-Slice) configuration."""
        assert _vcore(slices=1).global_rename.num_global == 512
        assert _vcore(slices=8).global_rename.num_global == 512

    def test_reconfiguration_flush(self):
        vcore = _vcore()
        ctx = vcore.slices[0]
        ctx.hierarchy.l1d.access(0, is_write=True)
        ctx.operand_arrival[3] = 10
        dirty = vcore.flush_for_reconfiguration()
        assert dirty >= 1
        assert not ctx.operand_arrival


class TestReconfigurationEngine:
    def test_cache_change_cost(self):
        engine = ReconfigurationEngine()
        cost = engine.cost(256, 2, 512, 2)
        assert cost.cycles == 10_000
        assert cost.cache_flushed

    def test_slice_only_change_cost(self):
        engine = ReconfigurationEngine()
        cost = engine.cost(256, 2, 256, 4)
        assert cost.cycles == 500
        assert cost.registers_flushed
        assert not cost.cache_flushed

    def test_no_change_is_free(self):
        cost = ReconfigurationEngine().cost(256, 2, 256, 2)
        assert cost.is_free

    def test_combined_change_charges_cache_cost(self):
        cost = ReconfigurationEngine().cost(256, 2, 512, 4)
        assert cost.cycles == 10_000
        assert cost.registers_flushed

    def test_schedule_cost(self):
        engine = ReconfigurationEngine()
        schedule = [(256, 2), (256, 4), (512, 4), (512, 4)]
        assert engine.schedule_cost(schedule) == 500 + 10_000

    def test_register_flush_scales_with_slices(self):
        engine = ReconfigurationEngine()
        assert (engine.register_flush_cycles(8)
                > engine.register_flush_cycles(1))

    def test_validation(self):
        engine = ReconfigurationEngine()
        with pytest.raises(ValueError):
            engine.cost(256, 0, 256, 1)
        with pytest.raises(ValueError):
            engine.cost(-1, 1, 256, 1)
        with pytest.raises(ValueError):
            ReconfigurationEngine(cache_flush_cycles=-1)
