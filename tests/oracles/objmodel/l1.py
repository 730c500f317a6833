"""Per-Slice L1 caches.

Paper Table 3: 16 KB, 64-byte lines, 2-way, 3-cycle hit delay for both the
L1 I-cache and L1 D-cache.  The L1 D-cache is private to each Slice; memory
operations are address-interleaved across Slices before access (Section
3.5), so no coherence is needed *within* a VCore.
"""

from __future__ import annotations

from repro.cache.l1 import (
    L1_ASSOC, L1_HIT_LATENCY, L1_LINE_BYTES, L1_SIZE_BYTES,
)
from tests.oracles.objmodel.setassoc import SetAssociativeCache


class L1Cache(SetAssociativeCache):
    """A 16 KB 2-way L1 (instruction or data) cache."""

    def __init__(self, name: str = "l1d", size_bytes: int = L1_SIZE_BYTES,
                 line_size: int = L1_LINE_BYTES, assoc: int = L1_ASSOC,
                 hit_latency: int = L1_HIT_LATENCY):
        super().__init__(size_bytes=size_bytes, line_size=line_size,
                         assoc=assoc, name=name)
        if hit_latency < 1:
            raise ValueError("hit latency must be >= 1 cycle")
        self.hit_latency = hit_latency

    def attach_obs(self, scope) -> None:
        """Attach counters plus the L1's timing configuration."""
        super().attach_obs(scope)
        scope.info("hit_latency", self.hit_latency)
