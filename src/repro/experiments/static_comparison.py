"""Figure 15: utility gain over the best static fixed architecture.

All ~1000 pairwise mixes of (benchmark, utility) customers, each pair's
summed utility on the Sharing Architecture divided by its summed utility
on the single best static configuration.  The paper reports gains of up
to 5x.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.economics.comparison import MarketEfficiencyComparison, PairGain
from repro.economics.optimizer import UtilityOptimizer
from repro.experiments.base import ExperimentResult
from repro.trace.profiles import all_benchmarks

NAME = "static_comparison"


@dataclass(frozen=True)
class StaticComparisonResult(ExperimentResult):
    """Figure 15's pair gains against the best static configuration."""

    static_config: Tuple[float, int]
    gains: Tuple[PairGain, ...]
    summary: Dict[str, float]


def run(benchmarks: Optional[Sequence[str]] = None,
        comparison: Optional[MarketEfficiencyComparison] = None,
        engine=None) -> StaticComparisonResult:
    """Figure 15 as a frozen result."""
    start = time.perf_counter()
    comparison = comparison or MarketEfficiencyComparison(
        list(benchmarks or all_benchmarks()),
        optimizer=UtilityOptimizer(obs=getattr(engine, "obs", None)))
    gains = tuple(comparison.gains_vs_static())
    summary = comparison.summarize(gains)
    rows = tuple(
        {"customer_a": f"{g.customer_a[0]}/{g.customer_a[1]}",
         "customer_b": f"{g.customer_b[0]}/{g.customer_b[1]}",
         "gain": g.gain}
        for g in gains
    )
    return StaticComparisonResult(
        name=NAME,
        params={"benchmarks": list(comparison.benchmarks),
                "market": comparison.market.name,
                "backend": "numpy"},
        rows=rows,
        elapsed=time.perf_counter() - start,
        static_config=comparison.best_static_config(),
        gains=gains,
        summary=summary,
    )


def render(result: StaticComparisonResult) -> None:
    cache_kb, slices = result.static_config
    summary = result.summary
    print("Figure 15: utility gain vs best static fixed architecture")
    print(f"  reference config: {int(cache_kb)} KB L2, {slices} Slices")
    print(f"  pairs: {summary['pairs']}")
    print(f"  gain min/median/mean/max: "
          f"{summary['min']:.2f} / {summary['median']:.2f} / "
          f"{summary['mean']:.2f} / {summary['max']:.2f}")
    # Histogram, mirroring the paper's scatter density.
    buckets = [0] * 10
    for g in result.gains:
        buckets[min(9, int(g.gain))] += 1
    for i, count in enumerate(buckets):
        if count:
            print(f"  gain {i}-{i + 1}x: {'#' * max(1, count // 20)} "
                  f"({count})")


def main() -> None:
    render(run())


if __name__ == "__main__":
    main()
