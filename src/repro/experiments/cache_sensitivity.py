"""Figure 13: performance scaling with cache size.

L2 swept from 0 KB to 8 MB on a fixed 2-Slice VCore, normalised to the
no-L2 point.  Reproduces the paper's observations: omnetpp is extremely
cache sensitive, astar/libquantum/gobmk are insensitive, and performance
can *decrease* with more cache because distant banks add latency.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.experiments.base import ExperimentResult
from repro.perfmodel.model import AnalyticModel, CACHE_GRID_KB
from repro.trace.profiles import all_benchmarks

NAME = "cache_sensitivity"
FIXED_SLICES = 2


@dataclass(frozen=True)
class CacheSensitivityResult(ExperimentResult):
    """Normalised performance per cache size, per benchmark."""

    cache_grid: Tuple[float, ...]
    series: Dict[str, Tuple[float, ...]]


def run(benchmarks: Optional[Sequence[str]] = None,
        cache_grid: Sequence[float] = CACHE_GRID_KB,
        model: Optional[AnalyticModel] = None,
        engine=None) -> CacheSensitivityResult:
    """Figure 13's curves as a frozen result."""
    start = time.perf_counter()
    benchmarks = list(benchmarks or all_benchmarks())
    cache_grid = tuple(float(c) for c in cache_grid)
    model = model or AnalyticModel()
    series = {
        bench: tuple(
            model.speedup(bench, c, FIXED_SLICES,
                          baseline_cache_kb=0, baseline_slices=FIXED_SLICES)
            for c in cache_grid
        )
        for bench in benchmarks
    }
    rows = tuple(
        {"benchmark": bench, "cache_kb": c, "speedup": value}
        for bench, values in series.items()
        for c, value in zip(cache_grid, values)
    )
    return CacheSensitivityResult(
        name=NAME,
        params={"fixed_slices": FIXED_SLICES,
                "cache_grid": list(cache_grid),
                "benchmarks": benchmarks},
        rows=rows,
        elapsed=time.perf_counter() - start,
        cache_grid=cache_grid,
        series=series,
    )


def run_simulated(benchmark: str = "omnetpp",
                  cache_grid: Sequence[float] = (0, 256, 1024),
                  trace_length: int = 4000,
                  seed: int = 1) -> Dict[float, float]:
    """Cycle-level anchor points for one benchmark."""
    # Imported here: ``run()`` is analytic, so loading the artefact
    # must not load the simulator.
    from repro.core.simulator import simulate
    from repro.trace.materialize import get_workload

    warmup, trace = get_workload(benchmark, trace_length, seed)
    cycles = {
        c: simulate(trace, num_slices=FIXED_SLICES, l2_cache_kb=c,
                    warmup_addresses=warmup).cycles
        for c in cache_grid
    }
    base = cycles[cache_grid[0]]
    return {c: base / cyc for c, cyc in cycles.items()}


def render(result: CacheSensitivityResult) -> None:
    grid = list(result.cache_grid)
    print(f"Figure 13: normalised performance vs L2 size "
          f"({FIXED_SLICES}-Slice VCore, baseline 0 KB)")
    header = " ".join(
        f"{int(c)}K" if c < 1024 else f"{int(c / 1024)}M" for c in grid
    )
    print("benchmark   " + header)
    for bench, values in result.series.items():
        print(f"{bench:11} " + " ".join(f"{v:4.2f}" for v in values))


def main() -> None:
    render(run())


if __name__ == "__main__":
    main()
