"""Spot-market auction for fine-grain resources.

Paper Section 2.1 notes EC2's Spot Pricing auction for whole VM
instances, and Section 2.3 proposes "a market where the cloud provider
auctions off all resources down to the ALU, KB of cache, fetch unit".
This module implements that market-clearing process: a tatonnement
auction in which every customer's meta-program re-submits its demand at
the current prices, and prices for Slices and Cache Banks move with
their individual excess demand until the market (approximately) clears.

The fixed point is the economically efficient allocation the paper's
utility analysis assumes: each customer holds the bundle that maximises
their utility at prices where demand meets supply.

A caveat worth stating: with *lumpy* demand (optima move in grid steps)
a Walrasian equilibrium need not exist - a population of identical
bidders under scarce supply can oscillate between two bundles forever.
``clear`` then returns ``converged=False`` with the final prices, and
the provider must ration (exactly what EC2's spot market does when it
interrupts instances).  Diverse populations, the realistic case, clear
in a handful of rounds.

Each tatonnement round is one best-response computation for every
bidder: the bidders' performance rows are stacked into one
``(bidders, cache * slices)`` tensor once, and each round is a
broadcasted cost/utility evaluation plus a flat argmax per bidder -
:class:`Allocation` objects are only materialized for the final round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.economics.tensor import MarketKernel
from repro.economics.utility import UtilityFunction
from repro.perfmodel.model import AnalyticModel


@dataclass(frozen=True)
class Bidder:
    """One customer participating in the spot market."""

    name: str
    benchmark: str
    utility: UtilityFunction
    budget: float

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise ValueError("budget must be positive")


@dataclass(frozen=True)
class Allocation:
    """What one bidder holds at the clearing prices."""

    bidder: str
    cache_kb: float
    slices: int
    vcores: float
    utility: float

    @property
    def slices_demanded(self) -> float:
        return self.vcores * self.slices

    @property
    def banks_demanded(self) -> float:
        return self.vcores * (self.cache_kb / 64.0)


@dataclass
class ClearingResult:
    """Outcome of the tatonnement.

    ``rationed`` marks the lumpy-demand case: customers' optima move in
    grid steps, so no price clears the market exactly; the price settles
    and the provider rations the over-demanded resource pro rata (the
    spot-market behaviour of interrupted EC2 spot instances).
    """

    slice_price: float
    bank_price: float
    rounds: int
    converged: bool
    allocations: List[Allocation]
    slice_supply: float
    bank_supply: float
    rationed: bool = False

    @property
    def total_welfare(self) -> float:
        """Global utility - the market-efficiency objective (§2.2)."""
        return sum(a.utility for a in self.allocations)

    @property
    def slice_demand(self) -> float:
        return sum(a.slices_demanded for a in self.allocations)

    @property
    def bank_demand(self) -> float:
        return sum(a.banks_demanded for a in self.allocations)

    @property
    def provider_revenue(self) -> float:
        return (self.slice_price * min(self.slice_demand, self.slice_supply)
                + self.bank_price * min(self.bank_demand, self.bank_supply))


class SpotMarket:
    """Tatonnement over Slice and bank prices.

    Bidders' best responses come from the market kernel, which reads
    ``model`` only through its ``comm_tolerance`` and ``mlp_per_slice``
    and never calls an overridden ``performance`` (see
    :mod:`repro.economics.tensor`, "Model contract").
    """

    def __init__(self, slice_supply: float, bank_supply: float,
                 fixed_cost: float = 8.0,
                 model: Optional[AnalyticModel] = None,
                 adjustment_rate: float = 0.3,
                 tolerance: float = 0.05,
                 max_rounds: int = 60,
                 obs=None):
        if slice_supply <= 0 or bank_supply <= 0:
            raise ValueError("supplies must be positive")
        if not 0 < adjustment_rate < 1:
            raise ValueError("adjustment rate must be in (0, 1)")
        self.slice_supply = slice_supply
        self.bank_supply = bank_supply
        self.fixed_cost = fixed_cost
        self.model = model or AnalyticModel()
        self.adjustment_rate = adjustment_rate
        self.tolerance = tolerance
        self.max_rounds = max_rounds
        from repro.obs import OBS_OFF

        self._obs = obs or OBS_OFF
        scope = self._obs.scope("economics.auction")
        self._c_rounds = scope.counter("rounds")
        self._c_bids = scope.counter("bid_evaluations")
        self._t_clear = scope.timer("clear_s")
        self._kernel: Optional[MarketKernel] = None

    def clear(self, bidders: Sequence[Bidder],
              initial_slice_price: float = 2.0,
              initial_bank_price: float = 1.0) -> ClearingResult:
        """Iterate prices until excess demand is within tolerance.

        Since the streaming redesign this is a thin wrapper: the
        bidders are replayed as an arrival-only event stream into an
        economics-only :class:`~repro.cloud.service.AllocationService`,
        whose cold-start tatonnement reproduces the historical loop
        bit for bit (same stacked tensors in bidder order, same
        two-round convergence minimum).
        """
        if not bidders:
            raise ValueError("need at least one bidder")
        with self._t_clear:
            # Imported here, not at module level: the service imports
            # this module's dataclasses.
            from repro.cloud.service import AllocationService, TenantRequest

            service = AllocationService(
                slice_supply=self.slice_supply,
                bank_supply=self.bank_supply,
                fixed_cost=self.fixed_cost,
                model=self.model,
                adjustment_rate=self.adjustment_rate,
                tolerance=self.tolerance,
                max_rounds=self.max_rounds,
                kernel=self._kernel,
            )
            for bidder in bidders:
                service.register(TenantRequest(
                    name=bidder.name, benchmark=bidder.benchmark,
                    utility=bidder.utility, budget=bidder.budget,
                ))
            result = service.clear_batch(initial_slice_price,
                                         initial_bank_price)
            # Keep the kernel so repeated clears share performance rows.
            self._kernel = service.kernel
            self._c_rounds.inc(result.rounds)
            self._c_bids.inc(result.rounds * len(bidders))
            return result


def _clamp(x: float, bound: float = 2.0) -> float:
    return max(-bound, min(bound, x))
