"""Directory-based MSI coherence at the L2.

Paper Section 3.5: within a VCore no coherence is needed (loads and stores
are address-interleaved to home Slices), but "in a multi-VCore VM, caches
need to be kept coherent between VCores ... In our presented results, we
put the coherence point between the L1 and L2 caches therefore having a
shared L2 cache per VM.  We modeled this with a detailed model which has a
directory in the L2.  Our modeled cache coherence protocol includes
switched network cost based on distance and L1 invalidations."

The directory tracks, per cache line, which VCores' L1s hold the line and
in what state; writes invalidate remote sharers, charging network latency
per invalidation round-trip.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set


class CoherenceState(enum.Enum):
    INVALID = "I"
    SHARED = "S"
    MODIFIED = "M"


@dataclass
class _LineEntry:
    state: CoherenceState = CoherenceState.INVALID
    sharers: Set[int] = field(default_factory=set)
    owner: Optional[int] = None


@dataclass
class CoherenceStats:
    reads: int = 0
    writes: int = 0
    invalidations_sent: int = 0
    downgrades: int = 0
    coherence_misses: int = 0


@dataclass(frozen=True)
class CoherenceOutcome:
    """Extra latency and traffic caused by a coherence action."""

    extra_latency: int
    invalidated_vcores: tuple


class Directory:
    """MSI directory covering one VM's shared L2.

    ``distance_fn(a, b)`` supplies the network distance between two VCores'
    home positions so invalidation cost reflects placement, as the paper's
    detailed model does.
    """

    def __init__(self, distance_fn: Optional[Callable[[int, int], int]] = None,
                 cycles_per_hop: int = 1, base_msg_latency: int = 1):
        self._lines: Dict[int, _LineEntry] = {}
        self._distance_fn = distance_fn or (lambda a, b: 1 if a != b else 0)
        self.cycles_per_hop = cycles_per_hop
        self.base_msg_latency = base_msg_latency
        self.stats = CoherenceStats()

    def _entry(self, line: int) -> _LineEntry:
        return self._lines.setdefault(line, _LineEntry())

    def _round_trip(self, a: int, b: int) -> int:
        """Invalidate + ack round-trip latency between two VCores."""
        hops = self._distance_fn(a, b)
        return 2 * (self.base_msg_latency + self.cycles_per_hop * hops)

    def state_of(self, line: int) -> CoherenceState:
        entry = self._lines.get(line)
        return entry.state if entry else CoherenceState.INVALID

    def sharers_of(self, line: int) -> Set[int]:
        entry = self._lines.get(line)
        return set(entry.sharers) if entry else set()

    def read(self, line: int, vcore: int) -> CoherenceOutcome:
        """VCore ``vcore`` fills ``line`` into its L1 for reading."""
        self.stats.reads += 1
        entry = self._entry(line)
        extra = 0
        invalidated = ()
        if entry.state is CoherenceState.MODIFIED and entry.owner != vcore:
            # Downgrade the remote owner M -> S (writeback to L2).
            assert entry.owner is not None
            extra = self._round_trip(vcore, entry.owner)
            entry.sharers = {entry.owner, vcore}
            entry.owner = None
            entry.state = CoherenceState.SHARED
            self.stats.downgrades += 1
            self.stats.coherence_misses += 1
        else:
            entry.sharers.add(vcore)
            if entry.state is CoherenceState.INVALID:
                entry.state = CoherenceState.SHARED
            elif entry.state is CoherenceState.MODIFIED:
                # Already owned by this VCore.
                entry.state = CoherenceState.MODIFIED
        return CoherenceOutcome(extra_latency=extra,
                                invalidated_vcores=invalidated)

    def write(self, line: int, vcore: int) -> CoherenceOutcome:
        """VCore ``vcore`` writes ``line``: invalidate all other sharers."""
        self.stats.writes += 1
        entry = self._entry(line)
        victims = tuple(s for s in entry.sharers if s != vcore)
        if entry.state is CoherenceState.MODIFIED and entry.owner not in (
            None,
            vcore,
        ):
            victims = tuple(set(victims) | {entry.owner})
        extra = 0
        if victims:
            # Invalidations proceed in parallel; latency is the farthest
            # round-trip, one message per victim is counted as traffic.
            extra = max(self._round_trip(vcore, v) for v in victims)
            self.stats.invalidations_sent += len(victims)
            self.stats.coherence_misses += 1
        entry.sharers = {vcore}
        entry.owner = vcore
        entry.state = CoherenceState.MODIFIED
        return CoherenceOutcome(extra_latency=extra, invalidated_vcores=victims)

    def evict(self, line: int, vcore: int) -> None:
        """VCore's L1 silently drops the line."""
        entry = self._lines.get(line)
        if entry is None:
            return
        entry.sharers.discard(vcore)
        if entry.owner == vcore:
            entry.owner = None
            entry.state = (
                CoherenceState.SHARED if entry.sharers else CoherenceState.INVALID
            )
        elif not entry.sharers:
            entry.state = CoherenceState.INVALID

    def num_tracked_lines(self) -> int:
        return sum(
            1
            for e in self._lines.values()
            if e.state is not CoherenceState.INVALID
        )
