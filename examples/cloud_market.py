"""An IaaS provider running the Sharing Architecture market.

The scenario the paper's introduction motivates: a provider with one
fabric serves a mixed population of customers - web servers that want
throughput, OLDI services that want single-stream latency, batch jobs in
between.  Customers arrive one at a time at the provider's
:class:`~repro.cloud.AllocationService`: each buys the configuration
that maximises their utility at the current prices, the service places
their VCores on the fabric, and prices move with demand after every
arrival.

The same population is then forced onto a static fixed multicore and the
total achieved utility (the market-efficiency quantity of paper Section
2.2) is compared - the per-customer view of Figure 15.

Run with::

    python examples/cloud_market.py
"""

import random

from repro import (
    MARKET2,
    UTILITY1,
    UTILITY2,
    UTILITY3,
    MarketEfficiencyComparison,
    UtilityOptimizer,
    all_benchmarks,
)
from repro.cloud import AllocationService, Fabric, TenantRequest


def build_customer_population(seed: int = 7, count: int = 24):
    """A mixed customer population over the paper's 15 workloads."""
    rng = random.Random(seed)
    utilities = [UTILITY1, UTILITY1, UTILITY2, UTILITY3]  # skew: throughput
    return [
        TenantRequest(
            name=f"customer{i}",
            benchmark=rng.choice(all_benchmarks()),
            utility=rng.choice(utilities),
            budget=rng.choice([12.0, 24.0, 48.0]),
        )
        for i in range(count)
    ]


def main() -> None:
    customers = build_customer_population()

    # --- the Sharing Architecture provider ---
    service = AllocationService(fabric=Fabric(width=32, height=16))
    admitted = []
    revenue = 0.0
    for customer in customers:
        market = service.spot_market()
        result = service.submit(customer)
        if result.admitted:
            admitted.append(result)
            revenue += result.vcores * market.cost(result.cache_kb,
                                                   result.slices)
        service.step()
    slice_price, bank_price = service.prices()
    print("=== Sharing Architecture provider ===")
    print(f"placed {len(admitted)}/{len(customers)} customers, "
          f"fabric utilisation {service.fabric.utilization():.0%}")
    print(f"total utility  : {sum(r.utility for r in admitted):10.2f}")
    print(f"total revenue  : {revenue:10.2f}")
    print(f"final prices   : Slice {slice_price:.2f}, bank {bank_price:.2f}")

    shapes = {}
    for r in admitted:
        key = (int(r.cache_kb), r.slices)
        shapes[key] = shapes.get(key, 0) + 1
    print("VCore shapes sold:")
    for (cache_kb, slices), n in sorted(shapes.items()):
        print(f"  {slices} Slices + {cache_kb:5d} KB  x{n}")

    # --- the static fixed competitor (Figure 15's reference config) ---
    static_cache_kb, static_slices = MarketEfficiencyComparison(
        all_benchmarks()).best_static_config()
    optimizers = {c.budget: UtilityOptimizer(budget=c.budget)
                  for c in customers}
    static_utility = sum(
        optimizers[c.budget].utility_at(c.benchmark, c.utility, MARKET2,
                                        static_cache_kb, static_slices)
        for c in customers
    )
    sharing_utility = sum(
        optimizers[c.budget].best(c.benchmark, c.utility, MARKET2).utility
        for c in customers
    )
    print("\n=== vs the best static fixed multicore ===")
    print(f"static config  : {static_slices} Slices + "
          f"{static_cache_kb:.0f} KB for everyone")
    print(f"static utility : {static_utility:10.2f}")
    print(f"sharing utility: {sharing_utility:10.2f}")
    print(f"market-efficiency gain: "
          f"{sharing_utility / static_utility:.2f}x")


if __name__ == "__main__":
    main()
