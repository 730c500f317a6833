"""Two-stage register renaming (paper Section 3.2, Figure 5).

Stage one (*global rename*, Section 3.2.1) maps architectural registers
onto a large global logical register space shared by all Slices of a
VCore, eliminating false dependences.  The free list is distributed across
Slices; destination renames are corrected through a master-Slice broadcast,
which costs extra pipeline depth in multi-Slice VCores.

Stage two (*local rename*, Section 3.2.2) maps global logical registers
into each Slice's Local Register File (LRF).  Remote source operands are
fetched with request/reply messages over the Scalar Operand Network and
*cached* in the LRF: later reads of the same global register from the same
Slice hit locally and send no message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple


class RenameStallError(RuntimeError):
    """Raised when rename cannot proceed (resource exhausted)."""


@dataclass
class GlobalMapping:
    """One live architectural -> global-logical mapping."""

    arch_reg: int
    global_reg: int
    producer_seq: int
    producer_slice: int


class GlobalRenameState:
    """Global RAT + distributed free list + scoreboard of producers.

    The scoreboard "tracks which Slice contains the most up-to-date value
    for a given register" (Section 3.2.1); it is what local rename
    consults to decide whether an operand request message is needed.
    """

    def __init__(self, num_global: int = 128, num_arch: int = 32):
        if num_global < num_arch:
            raise ValueError("global space must cover architectural space")
        self.num_global = num_global
        self.num_arch = num_arch
        self._free: List[int] = list(range(num_global - 1, -1, -1))
        self._rat: Dict[int, GlobalMapping] = {}
        # global reg -> slice currently holding / producing the value
        self._scoreboard: Dict[int, int] = {}
        self.allocations = 0
        self.free_list_stalls = 0

    @property
    def free_count(self) -> int:
        return len(self._free)

    def attach_obs(self, scope) -> None:
        """Register gauges over rename allocation/stall counters."""
        scope.gauge("allocations", lambda: self.allocations)
        scope.gauge("free_list_stalls", lambda: self.free_list_stalls)
        scope.gauge("free_count", lambda: len(self._free))
        scope.gauge("live_mappings", lambda: len(self._rat))
        scope.info("num_global", self.num_global)

    def lookup(self, arch_reg: int) -> Optional[GlobalMapping]:
        """Current mapping for an architectural source register."""
        return self._rat.get(arch_reg)

    def producer_slice(self, global_reg: int) -> Optional[int]:
        return self._scoreboard.get(global_reg)

    def allocate(self, arch_reg: int, producer_seq: int,
                 producer_slice: int) -> Tuple[int, Optional[GlobalMapping]]:
        """Rename a destination; returns ``(new_global, prior_mapping)``.

        ``prior_mapping.global_reg`` is the register to free once the new
        mapping commits; the full mapping object is kept so a squash can
        roll the RAT back.  Raises :class:`RenameStallError` when the
        distributed free list is empty.
        """
        if not self._free:
            self.free_list_stalls += 1
            raise RenameStallError("global logical free list empty")
        new_global = self._free.pop()
        prior = self._rat.get(arch_reg)
        self._rat[arch_reg] = GlobalMapping(
            arch_reg=arch_reg,
            global_reg=new_global,
            producer_seq=producer_seq,
            producer_slice=producer_slice,
        )
        self._scoreboard[new_global] = producer_slice
        self.allocations += 1
        return new_global, prior

    def release(self, global_reg: int) -> None:
        """Return a global register to the free list (at commit)."""
        self._scoreboard.pop(global_reg, None)
        self._free.append(global_reg)

    def rollback(self, arch_reg: int, global_reg: int,
                 prior: Optional[GlobalMapping]) -> None:
        """Undo an allocation (squash before commit)."""
        if prior is not None:
            self._rat[arch_reg] = prior
        else:
            self._rat.pop(arch_reg, None)
        self.release(global_reg)


class LocalRegisterFile:
    """One Slice's LRF: destination allocations plus remote-operand cache.

    Capacity pressure from both uses is what bounds a Slice's in-flight
    window (paper Table 2: 64 local registers per Slice).
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError("LRF needs at least one register")
        self.capacity = capacity
        #: global regs with an LRF entry on this Slice (dst or cached remote)
        self._resident: Set[int] = set()
        #: subset of ``_resident`` that are cached remote operands
        self._cached_remote: Set[int] = set()
        self.full_stalls = 0

    def __len__(self) -> int:
        return len(self._resident)

    @property
    def free_count(self) -> int:
        return self.capacity - len(self._resident)

    def attach_obs(self, scope) -> None:
        """Register gauges over LRF pressure counters."""
        scope.gauge("full_stalls", lambda: self.full_stalls)
        scope.gauge("occupancy", lambda: len(self._resident))
        scope.gauge("cached_remote", lambda: len(self._cached_remote))
        scope.info("capacity", self.capacity)

    def holds(self, global_reg: int) -> bool:
        return global_reg in self._resident

    def _evict_cached_remote(self) -> bool:
        """Drop one cached remote operand to free a register."""
        if not self._cached_remote:
            return False
        victim = next(iter(self._cached_remote))
        self._cached_remote.discard(victim)
        self._resident.discard(victim)
        return True

    def allocate_dst(self, global_reg: int) -> bool:
        """Allocate an entry for a locally produced value."""
        if global_reg in self._resident:
            return True
        if not self.free_count and not self._evict_cached_remote():
            self.full_stalls += 1
            return False
        self._resident.add(global_reg)
        return True

    def allocate_remote(self, global_reg: int) -> bool:
        """Allocate an entry for an incoming remote operand (Section
        3.2.2: the destination is allocated and marked pending until the
        operand reply arrives)."""
        if global_reg in self._resident:
            return True
        # Evict an older cached remote operand to make room; if none
        # exist the rename stage must stall.
        if not self.free_count and not self._evict_cached_remote():
            self.full_stalls += 1
            return False
        self._resident.add(global_reg)
        self._cached_remote.add(global_reg)
        return True

    def release(self, global_reg: int) -> None:
        self._resident.discard(global_reg)
        self._cached_remote.discard(global_reg)

    def flush_remote_cache(self) -> int:
        """Drop all cached remote operands (VCore reconfiguration)."""
        n = len(self._cached_remote)
        self._resident -= self._cached_remote
        self._cached_remote.clear()
        return n

