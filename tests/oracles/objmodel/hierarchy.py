"""Full cache hierarchy for one Slice's data accesses.

Composes the per-Slice L1D, the VCore's banked L2, MSHRs and the store
buffer into a single timed access path:

    L1D hit                      -> 3 cycles (Table 3)
    L1D miss, L2 hit             -> 3 + network + distance*2+4
    L1D miss, L2 miss (or 0 KB)  -> 3 + network + L2 + 100 (memory delay)

The network component is the switched-interconnect request/response cost
already folded into the L2 bank's ``distance * 2 + 4`` hit delay, which is
how the paper's Table 3 expresses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from tests.oracles.objmodel.l1 import L1Cache
from tests.oracles.objmodel.l2 import BankedL2
from tests.oracles.objmodel.mshr import MSHRFile
from tests.oracles.objmodel.storebuffer import StoreBuffer

#: Paper Table 2: Memory Delay.
MEMORY_LATENCY = 100


@dataclass(frozen=True)
class MemoryAccessOutcome:
    """Timing and classification of one data access."""

    complete_cycle: int
    l1_hit: bool
    l2_hit: bool
    from_store_buffer: bool = False
    mshr_merged: bool = False
    mshr_stalled: bool = False

    @property
    def latency_class(self) -> str:
        if self.from_store_buffer:
            return "store_forward"
        if self.l1_hit:
            return "l1"
        if self.l2_hit:
            return "l2"
        return "memory"


class CacheHierarchy:
    """The timed data-access path of one Slice."""

    def __init__(self, l1d: Optional[L1Cache] = None,
                 l2: Optional[BankedL2] = None,
                 mshr: Optional[MSHRFile] = None,
                 store_buffer: Optional[StoreBuffer] = None,
                 memory_latency: int = MEMORY_LATENCY):
        # Explicit None checks: empty MSHR files and store buffers are
        # falsy (they define __len__), so ``or`` would discard them.
        self.l1d = l1d if l1d is not None else L1Cache(name="l1d")
        self.l2 = l2 if l2 is not None else BankedL2(num_banks=2)
        self.mshr = (mshr if mshr is not None
                     else MSHRFile(line_size=self.l1d.line_size))
        self.store_buffer = (store_buffer if store_buffer is not None
                             else StoreBuffer())
        self.memory_latency = memory_latency
        self.loads = 0
        self.stores = 0

    def attach_obs(self, scope) -> None:
        """Attach the whole data path: L1D, MSHRs, store-buffer gauges."""
        scope.gauge("loads", lambda: self.loads)
        scope.gauge("stores", lambda: self.stores)
        self.l1d.attach_obs(scope.scope("l1d"))
        self.mshr.attach_obs(scope.scope("mshr"))
        sb = self.store_buffer
        sb_scope = scope.scope("store_buffer")
        sb_scope.gauge("inserted", lambda: sb.total_inserted)
        sb_scope.gauge("full_stalls", lambda: sb.full_stalls)
        sb_scope.gauge("occupancy", lambda: len(sb))

    def access(self, address: int, is_write: bool, now: int) -> MemoryAccessOutcome:
        """Perform a timed access starting at cycle ``now``."""
        if is_write:
            self.stores += 1
        else:
            self.loads += 1

        # Store-to-load forwarding from the store buffer is free beyond L1.
        if not is_write and self.store_buffer.forwards(address,
                                                       self.l1d.line_size):
            return MemoryAccessOutcome(
                complete_cycle=now + self.l1d.hit_latency,
                l1_hit=True,
                l2_hit=False,
                from_store_buffer=True,
            )

        # A line whose fill is still in flight must wait for that fill,
        # even though the tag was already installed by the primary miss.
        in_flight = self.mshr.lookup(address)
        if in_flight is not None:
            self.mshr.allocate(address, fill_cycle=in_flight.fill_cycle,
                               waiter_seq=-1)
            self.l1d.access(address, is_write=is_write)  # LRU touch
            return MemoryAccessOutcome(
                complete_cycle=max(in_flight.fill_cycle,
                                   now + self.l1d.hit_latency),
                l1_hit=False,
                l2_hit=True,  # piggybacks on the earlier fill
                mshr_merged=True,
            )

        l1_result = self.l1d.access(address, is_write=is_write)
        if l1_result.hit:
            return MemoryAccessOutcome(
                complete_cycle=now + self.l1d.hit_latency,
                l1_hit=True,
                l2_hit=False,
            )

        l2_result, l2_latency = self.l2.access(address, is_write=is_write)
        fill = now + self.l1d.hit_latency + l2_latency
        l2_hit = l2_result.hit
        if not l2_hit:
            fill += self.memory_latency

        entry = self.mshr.allocate(address, fill_cycle=fill, waiter_seq=-1)
        if entry is None:
            # MSHR full: the access retries after the oldest fill returns.
            earliest = self.mshr.earliest_fill()
            retry_at = earliest if earliest is not None else fill
            return MemoryAccessOutcome(
                complete_cycle=max(retry_at, fill) + 1,
                l1_hit=False,
                l2_hit=l2_hit,
                mshr_stalled=True,
            )
        return MemoryAccessOutcome(
            complete_cycle=fill,
            l1_hit=False,
            l2_hit=l2_hit,
        )

    def tick(self, now: int) -> None:
        """Per-cycle housekeeping: retire filled MSHRs, drain one store."""
        self.mshr.retire_filled(now)
        drained = self.store_buffer.drain_one(now)
        if drained is not None:
            # The draining store performs its cache access off the critical
            # path; charge only occupancy, not core stall time.
            self.l1d.access(drained.address, is_write=True)

    def commit_store(self, address: int, now: int) -> bool:
        """Place a committing store into the store buffer."""
        return self.store_buffer.push(address, commit_cycle=now)

    def flush_all(self) -> int:
        """Reconfiguration flush: L1 + all L2 banks; returns dirty lines."""
        dirty = self.l1d.flush()
        dirty += self.l2.flush()
        self.mshr.flush()
        self.store_buffer.flush()
        return dirty
