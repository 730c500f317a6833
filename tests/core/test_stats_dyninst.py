"""Tests for simulation statistics and the in-flight instruction record."""

import pytest

from repro.core.stats import SimStats, StallBreakdown
from repro.isa import Instruction, Opcode
from tests.oracles.objmodel.dyninst import NEVER, PENDING, DynInst


class TestSimStats:
    def test_ipc(self):
        stats = SimStats(cycles=100, committed=150)
        assert stats.ipc == 1.5
        assert SimStats().ipc == 0.0

    def test_branch_accuracy(self):
        stats = SimStats(branches=100, branch_mispredicts=5)
        assert stats.branch_accuracy == pytest.approx(0.95)
        assert SimStats().branch_accuracy == 1.0

    def test_miss_rates(self):
        stats = SimStats(l1d_accesses=200, l1d_misses=20,
                         l2_accesses=20, l2_misses=10)
        assert stats.l1d_miss_rate == pytest.approx(0.1)
        assert stats.l2_miss_rate == pytest.approx(0.5)
        assert SimStats().l1d_miss_rate == 0.0

    def test_summary_keys(self):
        summary = SimStats(cycles=10, committed=5).summary()
        assert {"cycles", "committed", "ipc", "branch_accuracy",
                "l1d_miss_rate", "l2_miss_rate", "lsq_violations",
                "squashed"} <= set(summary)

    def test_stall_breakdown_total(self):
        stalls = StallBreakdown(fetch_icache=3, dispatch_rob_full=7)
        assert stalls.total() == 10
        assert stalls.as_dict()["fetch_icache"] == 3


class TestDynInst:
    def _dyn(self):
        inst = Instruction(seq=5, pc=10, opcode=Opcode.ADD, srcs=(1,),
                           dst=2)
        return DynInst(inst=inst, slice_id=1)

    def test_initial_state(self):
        dyn = self._dyn()
        assert dyn.seq == 5
        assert not dyn.is_dispatched
        assert not dyn.is_issued
        assert not dyn.is_complete
        assert not dyn.is_committed
        assert dyn.fetch_cycle == NEVER

    def test_lifecycle_flags(self):
        dyn = self._dyn()
        dyn.dispatch_cycle = 3
        dyn.issue_cycle = 5
        dyn.complete_cycle = 6
        dyn.commit_cycle = 9
        assert dyn.is_dispatched and dyn.is_issued
        assert dyn.is_complete and dyn.is_committed

    def test_ready_cycle_tracks_slowest_source(self):
        dyn = self._dyn()
        dyn.dispatch_cycle = 2
        dyn.src_ready = [3, 17, 4]
        assert dyn.ready_cycle() == 17

    def test_ready_cycle_pending_source(self):
        dyn = self._dyn()
        dyn.dispatch_cycle = 2
        dyn.src_ready = [3, PENDING]
        assert dyn.ready_cycle() >= PENDING

    def test_ready_without_sources(self):
        dyn = self._dyn()
        dyn.dispatch_cycle = 7
        assert dyn.ready_cycle() == 7
