"""Distributed Reorder Buffer (paper Section 3.7).

ROB entries are partitioned across Slices (Table 1), so aggregate
capacity grows with Slice count.  Commit follows the Core Fusion
pre-commit approach: a pre-commit pointer guarantees all ROBs are up to
date several cycles before true commit, which we model as a fixed
synchronisation delay between completion and commit eligibility in
multi-Slice VCores.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, List, Optional

from tests.oracles.objmodel.dyninst import DynInst


class DistributedROB:
    """Program-order window partitioned across per-Slice ROB segments."""

    def __init__(self, num_slices: int, per_slice_capacity: int = 64,
                 precommit_sync: int = 3):
        if num_slices < 1:
            raise ValueError("need at least one Slice")
        if per_slice_capacity < 1:
            raise ValueError("ROB segment needs capacity >= 1")
        self.num_slices = num_slices
        self.per_slice_capacity = per_slice_capacity
        #: Pre-commit pointer exchange cost; only paid by multi-Slice VCores.
        self.precommit_sync = precommit_sync if num_slices > 1 else 0
        self._window: Deque[DynInst] = deque()
        self._per_slice_count: List[int] = [0] * num_slices
        self.dispatched = 0
        self.full_stalls = 0

    def __len__(self) -> int:
        return len(self._window)

    @property
    def total_capacity(self) -> int:
        return self.per_slice_capacity * self.num_slices

    def can_dispatch(self, slice_id: int) -> bool:
        return self._per_slice_count[slice_id] < self.per_slice_capacity

    def dispatch(self, dyn: DynInst) -> bool:
        """Append in program order; False (stall) when the segment is full."""
        if not self.can_dispatch(dyn.slice_id):
            self.full_stalls += 1
            return False
        if self._window and dyn.seq <= self._window[-1].seq:
            raise ValueError("ROB dispatch must follow program order")
        self._window.append(dyn)
        self._per_slice_count[dyn.slice_id] += 1
        self.dispatched += 1
        return True

    def attach_obs(self, scope) -> None:
        """Register gauges over the ROB counters and occupancy."""
        scope.gauge("dispatched", lambda: self.dispatched)
        scope.gauge("full_stalls", lambda: self.full_stalls)
        scope.gauge("occupancy", lambda: len(self._window))
        scope.info("per_slice_capacity", self.per_slice_capacity)
        scope.info("precommit_sync", self.precommit_sync)

    def head(self) -> Optional[DynInst]:
        return self._window[0] if self._window else None

    def commit_eligible(self, now: int) -> Optional[DynInst]:
        """Head instruction if it may truly commit at cycle ``now``."""
        head = self.head()
        if head is None or not head.is_complete:
            return None
        if head.complete_cycle + self.precommit_sync > now:
            return None
        return head

    def pop_head(self) -> DynInst:
        head = self._window.popleft()
        self._per_slice_count[head.slice_id] -= 1
        return head

    def squash_younger(self, seq: int) -> List[DynInst]:
        """Remove every instruction younger than ``seq`` (tail first)."""
        squashed: List[DynInst] = []
        while self._window and self._window[-1].seq > seq:
            victim = self._window.pop()
            self._per_slice_count[victim.slice_id] -= 1
            victim.squashed = True
            squashed.append(victim)
        return squashed

    def __iter__(self) -> Iterator[DynInst]:
        return iter(self._window)

    def occupancy_of(self, slice_id: int) -> int:
        return self._per_slice_count[slice_id]
