"""Figure 16: utility gain over a heterogeneous multicore.

Same pairwise study as Figure 15, but each customer runs on the fixed
configuration tuned for their *utility function* across the benchmark
suite - the strongest static heterogeneous design in the spirit of
Guevara et al. [18].  The paper reports gains of over 3x.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.economics.comparison import MarketEfficiencyComparison, PairGain
from repro.economics.optimizer import UtilityOptimizer
from repro.experiments.base import ExperimentResult
from repro.trace.profiles import all_benchmarks

NAME = "hetero_comparison"


@dataclass(frozen=True)
class HeteroComparisonResult(ExperimentResult):
    """Figure 16's pair gains against per-utility tuned cores."""

    per_utility_configs: Dict[str, Tuple[float, int]]
    gains: Tuple[PairGain, ...]
    summary: Dict[str, float]


def run(benchmarks: Optional[Sequence[str]] = None,
        comparison: Optional[MarketEfficiencyComparison] = None,
        engine=None) -> HeteroComparisonResult:
    """Figure 16 as a frozen result."""
    start = time.perf_counter()
    comparison = comparison or MarketEfficiencyComparison(
        list(benchmarks or all_benchmarks()),
        optimizer=UtilityOptimizer(obs=getattr(engine, "obs", None)))
    gains = tuple(comparison.gains_vs_heterogeneous())
    per_utility = {
        u.name: comparison.best_config_for_utility(u)
        for u in comparison.utilities
    }
    summary = comparison.summarize(gains)
    rows = tuple(
        {"customer_a": f"{g.customer_a[0]}/{g.customer_a[1]}",
         "customer_b": f"{g.customer_b[0]}/{g.customer_b[1]}",
         "gain": g.gain}
        for g in gains
    )
    return HeteroComparisonResult(
        name=NAME,
        params={"benchmarks": list(comparison.benchmarks),
                "market": comparison.market.name,
                "backend": "numpy"},
        rows=rows,
        elapsed=time.perf_counter() - start,
        per_utility_configs=per_utility,
        gains=gains,
        summary=summary,
    )


def render(result: HeteroComparisonResult) -> None:
    print("Figure 16: utility gain vs heterogeneous multicore")
    for uname, (cache_kb, slices) in result.per_utility_configs.items():
        print(f"  {uname} core: {int(cache_kb)} KB L2, {slices} Slices")
    summary = result.summary
    print(f"  pairs: {summary['pairs']}")
    print(f"  gain min/median/mean/max: "
          f"{summary['min']:.2f} / {summary['median']:.2f} / "
          f"{summary['mean']:.2f} / {summary['max']:.2f}")


def main() -> None:
    render(run())


if __name__ == "__main__":
    main()
