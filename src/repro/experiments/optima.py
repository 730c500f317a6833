"""Table 4: optimal VCore configurations for three efficiency metrics.

Exhaustive search over the Equation 3 space for every benchmark under
``performance/area``, ``performance^2/area`` and ``performance^3/area``.
The paper's headline observation - "the optimal configuration varies
greatly dependent on the efficiency metric" even within one benchmark -
is what the variance across columns reproduces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.area.model import AreaModel
from repro.economics.efficiency import (
    STANDARD_METRICS,
    EfficiencyMetric,
    optimal_configuration,
)
from repro.experiments.base import ExperimentResult
from repro.trace.profiles import all_benchmarks

NAME = "optima"

OptimaTable = Dict[str, Dict[str, Tuple[float, int]]]


@dataclass(frozen=True)
class OptimaResult(ExperimentResult):
    """``{metric: {benchmark: (cache_kb, slices)}}`` plus its diversity."""

    table: OptimaTable
    diversity: Dict[str, int]


def run(benchmarks: Optional[Sequence[str]] = None,
        metrics: Sequence[EfficiencyMetric] = STANDARD_METRICS,
        engine=None) -> OptimaResult:
    """Table 4 as a frozen result."""
    start = time.perf_counter()
    benchmarks = list(benchmarks or all_benchmarks())
    model = engine.grid_model(profiles=benchmarks) if engine else None
    area_model = AreaModel()
    table: OptimaTable = {
        metric.name: {
            bench: (
                (score := optimal_configuration(
                    bench, metric, model=model, area_model=area_model,
                )).cache_kb,
                score.slices,
            )
            for bench in benchmarks
        }
        for metric in metrics
    }
    diversity = configuration_diversity(table)
    rows = tuple(
        {"metric": metric, "benchmark": bench,
         "cache_kb": cfg[0], "slices": cfg[1]}
        for metric, row in table.items()
        for bench, cfg in row.items()
    )
    return OptimaResult(
        name=NAME,
        params={"benchmarks": benchmarks,
                "metrics": [m.name for m in metrics],
                "backend": "numpy"},
        rows=rows,
        elapsed=time.perf_counter() - start,
        table=table,
        diversity=diversity,
    )


def configuration_diversity(table: OptimaTable) -> Dict[str, int]:
    """Distinct optimal configurations per metric - the paper's
    non-uniformity argument in one number."""
    return {
        metric: len(set(row.values())) for metric, row in table.items()
    }


def render(result: OptimaResult) -> None:
    table = result.table
    print("Table 4: optimal VCore configurations (cache KB, Slices)")
    benches = list(next(iter(table.values())))
    print("benchmark   " + "  ".join(f"{m:>20}" for m in table))
    for bench in benches:
        cells = [
            f"({int(table[m][bench][0])}K,{table[m][bench][1]}s)"
            for m in table
        ]
        print(f"{bench:11} " + "  ".join(f"{c:>20}" for c in cells))
    print("distinct optima per metric:", result.diversity)


def main() -> None:
    render(run())


if __name__ == "__main__":
    main()
