"""Figure 12: scalability of VCore performance.

Performance for 1-8 Slices per VCore, normalised to one Slice with a
128 KB L2 (the paper's baseline).  SPEC benchmarks run single-threaded;
PARSEC benchmarks run 4 threads on 4 equally configured VCores, so the
per-VCore speedup is what varies (and is bounded by ~2, Section 5.3).

``run()`` uses the analytic model (the sweep source for the paper-shaped
curves); ``run_simulated()`` drives the cycle-level simulator on a short
trace for anchor validation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Sequence, Tuple

from repro.experiments.base import ExperimentResult
from repro.perfmodel.model import AnalyticModel, SLICE_GRID
from repro.trace.profiles import all_benchmarks

NAME = "scalability"
BASELINE_CACHE_KB = 128.0


@dataclass(frozen=True)
class ScalabilityResult(ExperimentResult):
    """Normalised performance per Slice count, per benchmark."""

    slice_grid: Tuple[int, ...]
    series: Dict[str, Tuple[float, ...]]


def run(benchmarks: Optional[Sequence[str]] = None,
        slice_grid: Sequence[int] = SLICE_GRID,
        model: Optional[AnalyticModel] = None,
        engine=None) -> ScalabilityResult:
    """Figure 12's curves as a frozen result."""
    start = time.perf_counter()
    benchmarks = list(benchmarks or all_benchmarks())
    slice_grid = tuple(int(s) for s in slice_grid)
    model = model or AnalyticModel()
    series = {
        bench: tuple(
            model.speedup(bench, BASELINE_CACHE_KB, s,
                          baseline_cache_kb=BASELINE_CACHE_KB,
                          baseline_slices=1)
            for s in slice_grid
        )
        for bench in benchmarks
    }
    rows = tuple(
        {"benchmark": bench, "slices": s, "speedup": value}
        for bench, values in series.items()
        for s, value in zip(slice_grid, values)
    )
    return ScalabilityResult(
        name=NAME,
        params={"baseline_cache_kb": BASELINE_CACHE_KB,
                "slice_grid": list(slice_grid),
                "benchmarks": benchmarks},
        rows=rows,
        elapsed=time.perf_counter() - start,
        slice_grid=slice_grid,
        series=series,
    )


def run_simulated(benchmark: str = "gcc",
                  slice_grid: Sequence[int] = (1, 2, 4, 8),
                  trace_length: int = 4000,
                  seed: int = 1,
                  sampling=None) -> Dict[int, float]:
    """Cycle-level anchor points for one benchmark.

    ``sampling`` (a :class:`~repro.sampling.SamplingConfig`) switches
    the sweep to interval-sampled simulation.
    """
    # Imported here: ``run()`` is analytic, so loading the artefact
    # must not load the simulator.
    from repro.core.simulator import simulate
    from repro.sampling import simulate_sampled
    from repro.trace.materialize import get_workload

    slice_grid = tuple(int(s) for s in slice_grid)
    warmup, trace = get_workload(benchmark, trace_length, seed)
    point = (simulate if sampling is None
             else partial(simulate_sampled, sampling=sampling))
    ipcs = {s: point(trace, num_slices=s, l2_cache_kb=BASELINE_CACHE_KB,
                     warmup_addresses=warmup).ipc
            for s in slice_grid}
    base = ipcs[slice_grid[0]]
    return {s: ipc / base for s, ipc in ipcs.items()}


def render(result: ScalabilityResult) -> None:
    grid = list(result.slice_grid)
    print("Figure 12: normalised performance vs Slice count "
          f"(baseline: 1 Slice, {BASELINE_CACHE_KB:.0f} KB)")
    print("benchmark   " + " ".join(f"s={s}" for s in grid))
    for bench, values in result.series.items():
        print(f"{bench:11} " + " ".join(f"{v:4.2f}" for v in values))


def main() -> None:
    render(run())


if __name__ == "__main__":
    main()
