"""Configurable L2 built from distributed 64 KB Cache Banks.

Paper Section 3.5: "Any L2 Cache Bank in the system can be used by any
VCore ... Addresses are low-order interleaved by cache line across L2
Cache Banks ... Latency increases as L2 banks are further away from the
cache miss issuing Slice."  Paper Table 3 gives the hit delay as
``distance * 2 + 4`` cycles, and Section 5.4 notes the resulting average:
"an additional 2-cycles of communication delay for each additional 256KB
of cache".  The production core (:mod:`repro.core.batched`) models the
banks over these constants.
"""

from __future__ import annotations

from typing import List

#: Paper Table 3 L2 bank geometry: 64 KB, 64 B lines, 4-way.
L2_BANK_BYTES = 64 * 1024
L2_LINE_BYTES = 64
L2_ASSOC = 4

#: Fixed component of the L2 hit delay (cycles), paper Table 3.
L2_BASE_LATENCY = 4
#: Cycles per unit of network distance to the bank, paper Table 3.
L2_CYCLES_PER_DISTANCE = 2


def l2_hit_latency(distance: int) -> int:
    """L2 hit delay for a bank at ``distance`` hops (paper Table 3)."""
    if distance < 0:
        raise ValueError("distance cannot be negative")
    return distance * L2_CYCLES_PER_DISTANCE + L2_BASE_LATENCY


def default_bank_distances(num_banks: int) -> List[int]:
    """Distances of a compact 2-D allocation around the requesting VCore.

    On the 2-D fabric the Manhattan ring at distance ``r`` holds ``4r``
    tiles, so a compact allocation fills rings outward: 4 banks at
    distance 1, 8 at distance 2, and so on.  Average latency therefore
    grows roughly with the square root of capacity, while the *marginal*
    bank added at the frontier matches the paper's "additional 2-cycles
    of communication delay for each additional 256KB" observation
    (Section 5.4).
    """
    distances: List[int] = []
    ring = 1
    while len(distances) < num_banks:
        take = min(4 * ring, num_banks - len(distances))
        distances.extend([ring] * take)
        ring += 1
    return distances

