"""Table 6: optimal VCore configurations in three markets.

Peak-utility configurations for every benchmark under Utility1-3 in
Market1 (Slices at 4x equal-area price), Market2 (prices equal area) and
Market3 (cache at 4x).  The paper uses these to show optimal purchases
move when demand-driven prices depart from area costs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.economics.market import STANDARD_MARKETS, Market
from repro.economics.optimizer import UtilityOptimizer
from repro.economics.utility import STANDARD_UTILITIES, UtilityFunction
from repro.experiments.base import ExperimentResult
from repro.trace.profiles import all_benchmarks

NAME = "markets"

MarketTable = Dict[Tuple[str, str, str], Tuple[float, int]]


@dataclass(frozen=True)
class MarketsResult(ExperimentResult):
    """``{(market, utility, benchmark): (cache_kb, slices)}`` + shifts."""

    table: MarketTable
    shifts: Dict[str, float]


def run(benchmarks: Optional[Sequence[str]] = None,
        markets: Sequence[Market] = STANDARD_MARKETS,
        utilities: Sequence[UtilityFunction] = STANDARD_UTILITIES,
        optimizer: Optional[UtilityOptimizer] = None,
        engine=None) -> MarketsResult:
    """Table 6 as a frozen result."""
    start = time.perf_counter()
    optimizer = optimizer or UtilityOptimizer(
        obs=getattr(engine, "obs", None))
    benchmarks = list(benchmarks or all_benchmarks())
    raw = optimizer.table6(benchmarks, utilities, markets)
    table: MarketTable = {
        key: (choice.cache_kb, choice.slices)
        for key, choice in raw.items()
    }
    shifts = market_shift_summary(table)
    rows = tuple(
        {"market": m, "utility": u, "benchmark": b,
         "cache_kb": cfg[0], "slices": cfg[1]}
        for (m, u, b), cfg in table.items()
    )
    return MarketsResult(
        name=NAME,
        params={"benchmarks": benchmarks,
                "markets": [m.name for m in markets],
                "utilities": [u.name for u in utilities],
                "backend": "numpy"},
        rows=rows,
        elapsed=time.perf_counter() - start,
        table=table,
        shifts=shifts,
    )


def market_shift_summary(table: MarketTable) -> Dict[str, float]:
    """How far optima move between markets, per utility function.

    Returns the fraction of benchmarks whose optimal configuration
    changes between Market1 and Market3 - the paper's demand-shifts-
    allocation argument quantified.
    """
    utilities = sorted({u for _, u, _ in table})
    benches = sorted({b for _, _, b in table})
    shifts = {}
    for u in utilities:
        moved = sum(
            1
            for b in benches
            if table[("Market1", u, b)] != table[("Market3", u, b)]
        )
        shifts[u] = moved / len(benches)
    return shifts


def render(result: MarketsResult) -> None:
    table = result.table
    markets = sorted({m for m, _, _ in table})
    utilities = sorted({u for _, u, _ in table})
    benches = sorted({b for _, _, b in table})
    print("Table 6: optimal (cache KB, Slices) per market and utility")
    for market in markets:
        print(f"== {market} ==")
        print("benchmark   " + "  ".join(f"{u:>12}" for u in utilities))
        for b in benches:
            cells = [
                f"({int(table[(market, u, b)][0])}K,"
                f"{table[(market, u, b)][1]}s)"
                for u in utilities
            ]
            print(f"{b:11} " + "  ".join(f"{c:>12}" for c in cells))
    print("fraction of optima moved Market1->Market3:", result.shifts)


def main() -> None:
    render(run())


if __name__ == "__main__":
    main()
