"""Per-Slice issue windows (paper Section 3.3).

Each Slice has a separate issue window for ALU instructions and for
loads/stores.  Instructions leave the window, possibly out of order, when
their operands will be available the next cycle; remote operands use the
one-cycle-early wakeup signal so the head start hides one network cycle.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.dyninst import DynInst
from repro.isa import OpClass


class IssueWindow:
    """One Slice's issue window for one functional-unit class."""

    def __init__(self, capacity: int, name: str = "window"):
        if capacity < 1:
            raise ValueError("issue window needs capacity >= 1")
        self.capacity = capacity
        self.name = name
        self._slots: List[DynInst] = []
        self.inserted = 0
        self.full_stalls = 0

    def __len__(self) -> int:
        return len(self._slots)

    @property
    def full(self) -> bool:
        return len(self._slots) >= self.capacity

    def insert(self, dyn: DynInst) -> bool:
        if self.full:
            self.full_stalls += 1
            return False
        self._slots.append(dyn)
        self.inserted += 1
        return True

    def pick_ready(self, now: int, predicate=None) -> Optional[DynInst]:
        """Select the oldest instruction whose operands are ready.

        The one-cycle head start of the remote wakeup (Section 3.3) is
        folded into each operand's recorded ready cycle by the simulator,
        so selection here is a plain oldest-first ready scan.  An optional
        ``predicate`` adds structural conditions (e.g. home LSQ bank has
        space for a memory operation).
        """
        best: Optional[DynInst] = None
        for dyn in self._slots:
            if dyn.ready_cycle() > now:
                continue
            if predicate is not None and not predicate(dyn):
                continue
            if best is None or dyn.seq < best.seq:
                best = dyn
        if best is not None:
            self._slots.remove(best)
        return best

    def squash_younger(self, seq: int) -> int:
        before = len(self._slots)
        self._slots = [d for d in self._slots if d.seq <= seq]
        return before - len(self._slots)


class SliceIssueStage:
    """Both issue windows of one Slice plus its functional-unit ports."""

    def __init__(self, slice_id: int, window_size: int = 32):
        # The paper gives each Slice "a separate issue window for ALU
        # instructions and loads/stores" (Section 3.3); the Table 2 sizes
        # are per window.
        self.slice_id = slice_id
        self.alu_window = IssueWindow(window_size, name=f"s{slice_id}.alu")
        self.mem_window = IssueWindow(window_size, name=f"s{slice_id}.mem")
        self.alu_issued = 0
        self.mem_issued = 0

    def window_for(self, op_class: OpClass) -> IssueWindow:
        if op_class.is_memory:
            return self.mem_window
        return self.alu_window

    def insert(self, dyn: DynInst) -> bool:
        return self.window_for(dyn.op_class).insert(dyn)

    def issue_cycle_picks(self, now: int, mem_predicate=None):
        """Pick at most one ALU-class and one memory-class instruction."""
        alu = self.alu_window.pick_ready(now)
        mem = self.mem_window.pick_ready(now, predicate=mem_predicate)
        if alu is not None:
            self.alu_issued += 1
        if mem is not None:
            self.mem_issued += 1
        return alu, mem

    def squash_younger(self, seq: int) -> int:
        return (self.alu_window.squash_younger(seq)
                + self.mem_window.squash_younger(seq))

    def occupancy(self) -> int:
        return len(self.alu_window) + len(self.mem_window)
