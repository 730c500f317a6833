"""Tests for the distributed ROB and per-Slice issue windows."""

import pytest

from tests.oracles.objmodel.dyninst import DynInst
from tests.oracles.objmodel.issue import IssueWindow, SliceIssueStage
from tests.oracles.objmodel.rob import DistributedROB
from repro.isa import Instruction, MemAccess, Opcode


def _dyn(seq, slice_id=0, opcode=Opcode.ADD, complete=None, ready=0):
    mem = MemAccess(address=seq * 64) if opcode in (Opcode.LD, Opcode.ST) else None
    srcs = (1,) if opcode != Opcode.ST else (1, 2)
    dst = 2 if opcode not in (Opcode.ST,) else None
    inst = Instruction(seq=seq, pc=seq, opcode=opcode, srcs=srcs, dst=dst,
                       mem=mem)
    dyn = DynInst(inst=inst, slice_id=slice_id)
    dyn.dispatch_cycle = 0
    dyn.src_ready = [ready]
    if complete is not None:
        dyn.complete_cycle = complete
    return dyn


class TestDistributedROB:
    def test_program_order_enforced(self):
        rob = DistributedROB(num_slices=1)
        rob.dispatch(_dyn(0))
        with pytest.raises(ValueError):
            rob.dispatch(_dyn(0))

    def test_per_slice_capacity(self):
        rob = DistributedROB(num_slices=2, per_slice_capacity=1)
        assert rob.dispatch(_dyn(0, slice_id=0))
        assert not rob.dispatch(_dyn(1, slice_id=0))  # segment 0 full
        assert rob.dispatch(_dyn(2, slice_id=1))
        assert rob.total_capacity == 2

    def test_precommit_sync_only_multislice(self):
        """Section 3.7: the pre-commit pointer costs nothing at 1 Slice."""
        assert DistributedROB(num_slices=1, precommit_sync=3).precommit_sync == 0
        assert DistributedROB(num_slices=4, precommit_sync=3).precommit_sync == 3

    def test_commit_eligibility_waits_for_sync(self):
        rob = DistributedROB(num_slices=2, precommit_sync=3)
        dyn = _dyn(0, complete=10)
        rob.dispatch(dyn)
        assert rob.commit_eligible(now=12) is None
        assert rob.commit_eligible(now=13) is dyn

    def test_incomplete_head_blocks(self):
        rob = DistributedROB(num_slices=1)
        rob.dispatch(_dyn(0))
        assert rob.commit_eligible(now=100) is None

    def test_squash_younger_marks_and_counts(self):
        rob = DistributedROB(num_slices=1, per_slice_capacity=8)
        dyns = [_dyn(i) for i in range(5)]
        for d in dyns:
            rob.dispatch(d)
        squashed = rob.squash_younger(2)
        assert [d.seq for d in squashed] == [4, 3]  # youngest first
        assert all(d.squashed for d in squashed)
        assert len(rob) == 3
        assert rob.occupancy_of(0) == 3


class TestIssueWindow:
    def test_oldest_ready_first(self):
        window = IssueWindow(capacity=4)
        late = _dyn(5, ready=0)
        early = _dyn(2, ready=0)
        window.insert(late)
        window.insert(early)
        assert window.pick_ready(now=0) is early

    def test_not_ready_not_picked(self):
        window = IssueWindow(capacity=4)
        window.insert(_dyn(1, ready=10))
        assert window.pick_ready(now=5) is None
        assert window.pick_ready(now=10) is not None

    def test_predicate_filters(self):
        window = IssueWindow(capacity=4)
        a, b = _dyn(1), _dyn(2)
        window.insert(a)
        window.insert(b)
        picked = window.pick_ready(now=0, predicate=lambda d: d.seq == 2)
        assert picked is b

    def test_capacity(self):
        window = IssueWindow(capacity=1)
        assert window.insert(_dyn(1))
        assert not window.insert(_dyn(2))
        assert window.full_stalls == 1

    def test_squash_younger(self):
        window = IssueWindow(capacity=4)
        window.insert(_dyn(1))
        window.insert(_dyn(5))
        assert window.squash_younger(2) == 1
        assert len(window) == 1


class TestSliceIssueStage:
    def test_separate_windows(self):
        """Section 3.3: separate windows for ALU and memory operations."""
        stage = SliceIssueStage(slice_id=0, window_size=4)
        stage.insert(_dyn(1, opcode=Opcode.ADD))
        stage.insert(_dyn(2, opcode=Opcode.LD))
        assert len(stage.alu_window) == 1
        assert len(stage.mem_window) == 1

    def test_dual_issue_per_cycle(self):
        stage = SliceIssueStage(slice_id=0, window_size=4)
        stage.insert(_dyn(1, opcode=Opcode.ADD))
        stage.insert(_dyn(2, opcode=Opcode.LD))
        alu, mem = stage.issue_cycle_picks(now=0)
        assert alu is not None and mem is not None
        assert stage.alu_issued == 1 and stage.mem_issued == 1
