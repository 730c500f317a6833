"""VCore and chip area accounting.

Ties the published Slice decomposition (Figure 10) to the CACTI-like bank
estimate (Figure 11) and exposes the area quantities consumed by the
performance-per-area metrics (Section 5.5) and the markets (Section 5.7):

* ``slice_area_mm2``     - one Slice including its sharing overhead;
* ``l2_bank_area_mm2``   - one 64 KB L2 Cache Bank;
* ``vcore_area(c, s)``   - a VCore with ``c`` KB of L2 and ``s`` Slices.

Paper Section 5.7 prices Market2 at cost == area with "1 Slice costs the
same as 128KB Cache", i.e. one Slice equals two 64 KB banks; the default
constants reproduce that equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.area.cacti import CactiLite
from repro.area.components import (
    SHARING_OVERHEAD_COMPONENTS,
    normalized_fractions,
)

#: Absolute Slice area at 45 nm implied by the paper's modest structures.
DEFAULT_SLICE_AREA_MM2 = 0.50

#: Paper Section 5.7: one Slice has the area of this much L2 cache.
SLICE_EQUIVALENT_L2_KB = 128.0

#: Capacity of one L2 bank (KB), paper Section 3.5.
L2_BANK_KB = 64.0


@dataclass
class AreaModel:
    """Area accounting for Slices, banks, VCores and chips."""

    slice_area_mm2: float = DEFAULT_SLICE_AREA_MM2
    #: Per-VCore share of uncore resources (memory controllers, I/O,
    #: on-chip network backbone) charged by the performance-per-area
    #: metrics; roughly four Slices worth, in line with contemporary
    #: server dies where uncore is a large fraction of area.
    uncore_area_mm2: float = 4 * DEFAULT_SLICE_AREA_MM2
    cacti: CactiLite = field(default_factory=CactiLite)
    #: When True (default), pin the bank area to exactly half a Slice, the
    #: equivalence the paper's markets use; when False, use the CACTI-like
    #: estimate (~0.54 Slices per 128 KB, matching Figure 11's 35%).
    use_market_equivalence: bool = True

    @property
    def l2_bank_area_mm2(self) -> float:
        if self.use_market_equivalence:
            return self.slice_area_mm2 * (L2_BANK_KB / SLICE_EQUIVALENT_L2_KB)
        return self.cacti.area_mm2(L2_BANK_KB, assoc=4)

    def vcore_area(self, cache_kb: float, slices: int,
                   include_uncore: bool = False) -> float:
        """Area of a VCore with ``cache_kb`` KB of L2 and ``slices`` Slices.

        ``include_uncore`` adds the per-VCore uncore share, which the
        efficiency metrics (Table 4) charge so that performance-per-area
        reflects whole-server cost rather than core tiles alone.
        """
        if slices < 1:
            raise ValueError("a VCore has at least one Slice")
        if cache_kb < 0:
            raise ValueError("cache size cannot be negative")
        banks = cache_kb / L2_BANK_KB
        area = slices * self.slice_area_mm2 + banks * self.l2_bank_area_mm2
        if include_uncore:
            area += self.uncore_area_mm2
        return area

    def chip_area(self, num_slices: int, num_banks: int) -> float:
        """Area of a fabric with the given tile populations."""
        if num_slices < 0 or num_banks < 0:
            raise ValueError("tile counts cannot be negative")
        return (
            num_slices * self.slice_area_mm2
            + num_banks * self.l2_bank_area_mm2
        )

    # ------------------------------------------------------------------
    # published decomposition views (Figures 10 and 11)
    # ------------------------------------------------------------------

    def decomposition_without_l2(self) -> Dict[str, float]:
        """Figure 10: percentage share of each component in one Slice."""
        return {
            c.value: frac * 100.0 for c, frac in normalized_fractions().items()
        }

    def decomposition_with_l2(self) -> Dict[str, float]:
        """Figure 11: shares of a tile of one Slice plus one 64 KB bank.

        The published figure measures the bank at ~35% of the tile; using
        the CACTI-like estimate independently of the market equivalence
        keeps this view faithful to Figure 11.
        """
        bank = self.cacti.area_mm2(L2_BANK_KB, assoc=4)
        tile = self.slice_area_mm2 + bank
        shares = {
            c.value: frac * self.slice_area_mm2 / tile * 100.0
            for c, frac in normalized_fractions().items()
        }
        shares["l2_dcache_64kb"] = bank / tile * 100.0
        return shares

    def sharing_overhead_pct_without_l2(self) -> float:
        fracs = normalized_fractions()
        return sum(fracs[c] for c in SHARING_OVERHEAD_COMPONENTS) * 100.0

    def sharing_overhead_pct_with_l2(self) -> float:
        shares = self.decomposition_with_l2()
        return sum(
            shares[c.value] for c in SHARING_OVERHEAD_COMPONENTS
        )
