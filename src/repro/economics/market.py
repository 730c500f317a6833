"""Resource markets (paper Section 5.7).

A market assigns prices to the two fine-grain resources - Slices and
64 KB L2 Cache Banks - and the budget constraint (Equation 2) converts a
customer's budget into the number of VCores they can afford:

    v = B / (C_c * c + C_s * s)

The paper's three markets stress how optimal configurations move when
demand-driven prices depart from area cost:

* **Market2** - prices equal area: 1 Slice costs the same as 128 KB of
  cache (two banks);
* **Market1** - Slices in high demand: four times their equal-area cost;
* **Market3** - cache in high demand: four times its equal-area cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

#: Capacity of one L2 bank in KB (paper Section 3.5).
BANK_KB = 64.0


def budget_error(budget: float) -> Optional[str]:
    """Why ``budget`` is not a budget - a positive, finite number of
    currency units - as a one-line message, or ``None`` if it is."""
    if 0 < budget < math.inf:
        return None
    return f"budget must be a positive, finite number, got {budget!r}"


@dataclass(frozen=True)
class Market:
    """Per-resource prices, in arbitrary currency per hour.

    ``fixed_cost`` is the per-VCore overhead every VM instance carries
    regardless of its core composition - DRAM, disk, NIC and hypervisor
    share (the beyond-core resources the paper prices separately,
    Section 2.1, plus the administrative preference for fewer, larger
    instances noted in Section 2.2).  Without it, Equation 2 degenerates:
    the cheapest possible VCore always maximises throughput utility.
    """

    name: str
    slice_price: float
    bank_price: float
    fixed_cost: float = 8.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.slice_price <= 0 or self.bank_price <= 0:
            raise ValueError("prices must be positive")
        if self.fixed_cost < 0:
            raise ValueError("fixed cost cannot be negative")

    def cost(self, cache_kb: float, slices: int) -> float:
        """Hourly cost of one VCore configuration (Equation 2 denominator,
        plus the per-instance fixed overhead)."""
        if cache_kb < 0:
            raise ValueError("cache size cannot be negative")
        if slices < 1:
            raise ValueError("a VCore has at least one Slice")
        banks = cache_kb / BANK_KB
        return (self.bank_price * banks + self.slice_price * slices
                + self.fixed_cost)

    def vcores_affordable(self, budget: float, cache_kb: float,
                          slices: int) -> float:
        """Equation 2: ``v = B / (C_c * c + C_s * s)``.

        The paper treats ``v`` as continuous (workloads replicate within
        and across VMs without loss of generality, Section 5.6).
        """
        if budget < 0:
            raise ValueError("budget cannot be negative")
        return budget / self.cost(cache_kb, slices)

    def relative_slice_premium(self) -> float:
        """Slice price relative to its equal-area price (2 banks)."""
        return self.slice_price / (2.0 * self.bank_price)


#: Slices priced at four times equal-area cost (high demand for compute).
MARKET1 = Market(
    name="Market1",
    slice_price=8.0,
    bank_price=1.0,
    description="Slices at 4x their equal-area cost",
)
#: Prices track area: one Slice == two 64 KB banks == 128 KB.
MARKET2 = Market(
    name="Market2",
    slice_price=2.0,
    bank_price=1.0,
    description="cost equals area (1 Slice = 128 KB cache)",
)
#: Cache priced at four times equal-area cost (high demand for cache).
MARKET3 = Market(
    name="Market3",
    slice_price=2.0,
    bank_price=4.0,
    description="cache at 4x its equal-area cost",
)

STANDARD_MARKETS: Tuple[Market, ...] = (MARKET1, MARKET2, MARKET3)
