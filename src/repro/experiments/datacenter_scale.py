"""Datacenter-scale market allocation: 10k+ tenants across Markets 1-3.

The paper sizes its economics at tens of customers; a production IaaS
market serves orders of magnitude more.  This experiment stresses the
vectorized market kernel end to end: synthetic tenants are drawn from
the Table 5 workload mix (15 benchmarks x 3 utility functions), each
tenant's optimal VCore configuration comes from the market optimizer,
and the resulting VMs are placed on racks of Sharing-Architecture
fabrics by the indexed allocator.

Two properties make this tractable:

* optimal configurations are budget-independent - ``U(B) = B^(1/k) *
  U(1)`` scales every config's utility equally - so the 45 archetypes
  are optimized once per market and each tenant only needs a vcore
  count from their own budget;
* fabric placement costs O(log height) for the Slice run plus one
  O(banks) numpy filter of a per-anchor bank order, so allocation cost
  is linear in tenants.  Every rack of a run is opened with
  ``Fabric.empty_like`` from one template, so the racks share those
  orders: a 1,500-tenant run builds one order per distinct anchor (465)
  instead of one per rack and anchor (3,296), and the orders are freed
  with the racks when the run returns.

Per-phase wall times (optimize / synthesize / allocate) are recorded
through ``repro.obs`` under ``experiments.datacenter_scale`` and
reported in the result.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.cloud.fabric import Fabric, TileKind
from repro.cloud.hypervisor import Hypervisor
from repro.cloud.vm import VMSpec
from repro.economics.market import STANDARD_MARKETS, Market
from repro.economics.optimizer import UtilityOptimizer
from repro.economics.utility import STANDARD_UTILITIES
from repro.experiments.base import ExperimentResult
from repro.trace.profiles import PROFILES

NAME = "datacenter_scale"

#: Rack geometry: 32 slice columns x 32 rows, 1:1 slice:bank ratio.
RACK_WIDTH = 64
RACK_HEIGHT = 32

#: Tenant budgets span small through premium customers.
BUDGET_SPAN = (12.0, 48.0)

#: Cap per-tenant replication so a single tenant cannot hog a rack.
MAX_VCORES = 8


@dataclass(frozen=True)
class Tenant:
    """One synthetic customer drawn from the workload mix."""

    name: str
    benchmark: str
    utility_name: str
    budget: float


@dataclass(frozen=True)
class DatacenterScaleResult(ExperimentResult):
    """Placement and welfare statistics per market."""

    num_tenants: int
    seed: int
    phase_seconds: Dict[str, float]
    backend: str


def _synthesize(num_tenants: int, seed: int) -> List[Tenant]:
    """The Table 5 mix: uniform over (benchmark, utility), budgets
    uniform across the span."""
    rng = random.Random(seed)
    benchmarks = sorted(PROFILES)
    lo, hi = BUDGET_SPAN
    tenants = []
    for i in range(num_tenants):
        bench = benchmarks[rng.randrange(len(benchmarks))]
        util = STANDARD_UTILITIES[rng.randrange(len(STANDARD_UTILITIES))]
        tenants.append(Tenant(
            name=f"tenant{i}",
            benchmark=bench,
            utility_name=util.name,
            budget=rng.uniform(lo, hi),
        ))
    return tenants


def run(num_tenants: int = 10_000, seed: int = 7,
        markets: Sequence[Market] = STANDARD_MARKETS,
        engine=None, obs=None) -> DatacenterScaleResult:
    """Allocate ``num_tenants`` synthetic tenants in every market."""
    start = time.perf_counter()
    if obs is None and engine is not None:
        obs = getattr(engine, "obs", None)
    from repro.obs import OBS_OFF

    obs = obs or OBS_OFF
    scope = obs.scope("experiments.datacenter_scale")
    t_optimize = scope.timer("optimize_s")
    t_synthesize = scope.timer("synthesize_s")
    t_allocate = scope.timer("allocate_s")
    c_placed = scope.counter("tenants_placed")
    c_rejected = scope.counter("tenants_rejected")

    optimizer = UtilityOptimizer(obs=obs)
    utilities = {u.name: u for u in STANDARD_UTILITIES}
    benchmarks = sorted(PROFILES)

    # Phase 1: optimize the 45 archetypes once per market.  Budget
    # independence (U(B) = B^(1/k) * U(1)) makes this exact for every
    # tenant budget.
    phase_t0 = time.perf_counter()
    with t_optimize:
        archetypes = optimizer.table6(benchmarks, STANDARD_UTILITIES,
                                      markets)
    optimize_s = time.perf_counter() - phase_t0

    phase_t0 = time.perf_counter()
    with t_synthesize:
        tenants = _synthesize(num_tenants, seed)
    synthesize_s = time.perf_counter() - phase_t0

    phase_t0 = time.perf_counter()
    rows = []
    with t_allocate:
        # Every rack of the run shares this template's bank orders.
        template = Fabric(RACK_WIDTH, RACK_HEIGHT)
        for market in markets:
            racks: List[Hypervisor] = [Hypervisor(template.empty_like())]
            placed = 0
            rejected = 0
            welfare = 0.0
            for tenant in tenants:
                choice = archetypes[(market.name, tenant.utility_name,
                                     tenant.benchmark)]
                affordable = market.vcores_affordable(
                    tenant.budget, choice.cache_kb, choice.slices
                )
                vcores = max(1, min(MAX_VCORES, int(affordable)))
                spec = VMSpec.uniform(
                    num_vcores=vcores,
                    slices_per_vcore=choice.slices,
                    cache_kb_per_vcore=choice.cache_kb,
                )
                instance = racks[-1].place(spec)
                if instance is None:
                    # Open a fresh rack rather than rescan older ones:
                    # keeps allocation strictly linear in tenants.
                    racks.append(Hypervisor(template.empty_like()))
                    instance = racks[-1].place(spec)
                if instance is None:
                    rejected += 1
                    c_rejected.inc()
                    continue
                placed += 1
                c_placed.inc()
                welfare += utilities[tenant.utility_name].value(
                    choice.performance, float(vcores)
                )
            utilization = (sum(r.fabric.utilization() for r in racks)
                           / len(racks))
            rows.append({
                "market": market.name,
                "tenants": len(tenants),
                "placed": placed,
                "rejected": rejected,
                "racks": len(racks),
                "mean_utilization": utilization,
                "total_welfare": welfare,
            })
    allocate_s = time.perf_counter() - phase_t0

    return DatacenterScaleResult(
        name=NAME,
        params={"num_tenants": num_tenants, "seed": seed,
                "markets": [m.name for m in markets],
                "backend": "numpy",
                "rack": f"{RACK_WIDTH}x{RACK_HEIGHT}"},
        rows=tuple(rows),
        elapsed=time.perf_counter() - start,
        num_tenants=num_tenants,
        seed=seed,
        phase_seconds={"optimize": optimize_s,
                       "synthesize": synthesize_s,
                       "allocate": allocate_s},
        backend="numpy",
    )


def render(result: DatacenterScaleResult) -> None:
    print(f"Datacenter-scale allocation: {result.num_tenants} tenants, "
          f"backend={result.backend}")
    print("  market    placed  rejected  racks  mean-util  welfare")
    for row in result.rows:
        print(f"  {row['market']:<9} {row['placed']:>6} "
              f"{row['rejected']:>9} {row['racks']:>6} "
              f"{row['mean_utilization']:>9.2f} "
              f"{row['total_welfare']:>12.1f}")
    phases = result.phase_seconds
    print("  phases: " + "  ".join(
        f"{k}={v:.2f}s" for k, v in phases.items()
    ))
    print(f"  total: {result.elapsed:.2f}s")


def main() -> None:
    render(run())


if __name__ == "__main__":
    main()
