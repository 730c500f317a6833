"""Configurable L2 built from distributed 64 KB Cache Banks.

Paper Section 3.5: "Any L2 Cache Bank in the system can be used by any
VCore ... Addresses are low-order interleaved by cache line across L2
Cache Banks ... Latency increases as L2 banks are further away from the
cache miss issuing Slice."  Paper Table 3 gives the hit delay as
``distance * 2 + 4`` cycles, and Section 5.4 notes the resulting average:
"an additional 2-cycles of communication delay for each additional 256KB
of cache".
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.cache.l2 import (
    L2_ASSOC,
    L2_BANK_BYTES,
    L2_BASE_LATENCY,
    L2_CYCLES_PER_DISTANCE,
    L2_LINE_BYTES,
    default_bank_distances,
    l2_hit_latency,
)
from tests.oracles.objmodel.setassoc import AccessResult, SetAssociativeCache

#: Shared zero-bank miss result (frozen dataclass, safe to share).
_MISS = AccessResult(hit=False)


class L2Bank(SetAssociativeCache):
    """A single 64 KB L2 Cache Bank at a fixed network distance."""

    def __init__(self, bank_id: int, distance: int = 1):
        super().__init__(size_bytes=L2_BANK_BYTES, line_size=L2_LINE_BYTES,
                         assoc=L2_ASSOC, name=f"l2bank{bank_id}")
        self.bank_id = bank_id
        self.distance = distance

    @property
    def hit_latency(self) -> int:
        return l2_hit_latency(self.distance)

    def attach_obs(self, scope) -> None:
        """Attach counters plus this bank's placement/latency."""
        super().attach_obs(scope)
        scope.info("distance", self.distance)
        scope.info("hit_latency", self.hit_latency)


class BankedL2:
    """A VCore's L2: zero or more banks with low-order line interleaving."""

    def __init__(self, num_banks: int, distances: Optional[Sequence[int]] = None,
                 line_size: int = L2_LINE_BYTES):
        if num_banks < 0:
            raise ValueError("bank count cannot be negative")
        if distances is None:
            distances = default_bank_distances(num_banks)
        if len(distances) != num_banks:
            raise ValueError("one distance per bank required")
        self.line_size = line_size
        self.banks: List[L2Bank] = [
            L2Bank(bank_id=i, distance=d) for i, d in enumerate(distances)
        ]

    @property
    def num_banks(self) -> int:
        return len(self.banks)

    @property
    def size_kb(self) -> float:
        return self.num_banks * L2_BANK_BYTES / 1024

    def bank_for(self, address: int) -> Optional[L2Bank]:
        """Home bank of an address (low-order interleave by cache line)."""
        if not self.banks:
            return None
        line = address // self.line_size
        return self.banks[line % len(self.banks)]

    def _bank_local_address(self, address: int) -> int:
        """Address as seen inside the home bank.

        The low-order line bits select the bank, so the bank's internal
        set index must come from the *remaining* bits - otherwise lines
        mapping to one bank would collapse onto a handful of its sets.
        """
        line = address // self.line_size
        return (line // len(self.banks)) * self.line_size

    def access(self, address: int, is_write: bool = False):
        """Access the home bank; returns ``(AccessResult, latency)``.

        With zero banks every access misses with zero L2 latency (the
        request goes straight to memory), matching the paper's 0 KB L2
        configurations (Figure 13 starts at "0").

        The bank selection and bank-local address arithmetic of
        :meth:`bank_for` / :meth:`_bank_local_address` are inlined here:
        this is the hottest call in cache warmup and fast-forward.
        """
        banks = self.banks
        if not banks:
            return _MISS, 0
        num_banks = len(banks)
        line = address // self.line_size
        bank = banks[line % num_banks]
        result = bank.access((line // num_banks) * self.line_size,
                             is_write=is_write)
        return result, bank.distance * L2_CYCLES_PER_DISTANCE + L2_BASE_LATENCY

    def flush(self) -> int:
        """Flush all banks (reconfiguration); returns dirty lines written."""
        return sum(bank.flush() for bank in self.banks)

    def attach_obs(self, scope) -> None:
        """Attach aggregate gauges plus every bank under ``bank<i>``."""
        scope.gauge("hits", lambda: self.hits)
        scope.gauge("misses", lambda: self.misses)
        scope.gauge("miss_rate", lambda: self.miss_rate)
        scope.info("size_kb", self.size_kb)
        scope.info("num_banks", self.num_banks)
        for bank in self.banks:
            bank.attach_obs(scope.scope(f"bank{bank.bank_id}"))

    def mean_hit_latency(self) -> float:
        """Capacity-weighted average hit latency across banks."""
        if not self.banks:
            return 0.0
        return sum(b.hit_latency for b in self.banks) / len(self.banks)

    @property
    def hits(self) -> int:
        return sum(b.hits for b in self.banks)

    @property
    def misses(self) -> int:
        return sum(b.misses for b in self.banks)

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0
