"""An auto-tuned customer without a performance model.

Paper Section 4: customers who cannot model their application "could
utilize an auto-tuner" that "would slowly search the configuration space
by varying the VM instance configuration" using heartbeat feedback.

Here the heartbeat is a *real measurement*: each probed configuration is
run on the cycle-level simulator with a short trace, and the tuner hill-
climbs on measured instructions-per-cycle-per-cost.  The result is
compared against the model-based optimiser's choice.

The tuner hill-climbs over the (cache, Slice) grid using a caller-
supplied measurement function (a heartbeat: higher is better), so it
works identically against the analytic model, the cycle-level simulator,
or - in a real deployment - live application throughput.

Run with::

    python examples/autotuned_customer.py

It takes under a second: each of the 14 probes simulates 1,500
instructions.
"""

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import (
    CACHE_GRID_KB,
    MARKET2,
    SLICE_GRID,
    UTILITY1,
    UtilityOptimizer,
    make_workload,
    simulate,
)

#: A heartbeat: maps (cache_kb, slices) to a goodness score.
MeasureFn = Callable[[float, int], float]


@dataclass
class TuningResult:
    """Outcome of one auto-tuning run."""

    best_cache_kb: float
    best_slices: int
    best_score: float
    evaluations: int
    trajectory: List[Tuple[float, int, float]] = field(default_factory=list)


class AutoTuner:
    """Greedy hill climber with restart over the configuration grid."""

    def __init__(self, measure: MeasureFn,
                 cache_grid: Sequence[float] = CACHE_GRID_KB,
                 slice_grid: Sequence[int] = SLICE_GRID,
                 max_evaluations: int = 64):
        if max_evaluations < 1:
            raise ValueError("need at least one evaluation")
        self.measure = measure
        self.cache_grid = list(cache_grid)
        self.slice_grid = list(slice_grid)
        self.max_evaluations = max_evaluations
        self._cache_index = {c: i for i, c in enumerate(self.cache_grid)}
        self._slice_index = {s: i for i, s in enumerate(self.slice_grid)}

    def _neighbors(self, cache_kb: float, slices: int
                   ) -> List[Tuple[float, int]]:
        ci = self._cache_index[cache_kb]
        si = self._slice_index[slices]
        out: List[Tuple[float, int]] = []
        for dci, dsi in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = ci + dci, si + dsi
            if 0 <= ni < len(self.cache_grid) and 0 <= nj < len(self.slice_grid):
                out.append((self.cache_grid[ni], self.slice_grid[nj]))
        return out

    def tune(self, start_cache_kb: Optional[float] = None,
             start_slices: Optional[int] = None) -> TuningResult:
        """Hill-climb from a starting configuration to a local optimum."""
        cache_kb = (self.cache_grid[len(self.cache_grid) // 2]
                    if start_cache_kb is None else start_cache_kb)
        slices = (self.slice_grid[0]
                  if start_slices is None else start_slices)
        if cache_kb not in self._cache_index:
            raise ValueError(f"start cache {cache_kb} not on the grid")
        if slices not in self._slice_index:
            raise ValueError(f"start slices {slices} not on the grid")

        scores: Dict[Tuple[float, int], float] = {}

        def measured(c: float, s: int) -> float:
            key = (c, s)
            if key not in scores:
                scores[key] = self.measure(c, s)
            return scores[key]

        trajectory: List[Tuple[float, int, float]] = []
        current_score = measured(cache_kb, slices)
        trajectory.append((cache_kb, slices, current_score))
        while len(scores) < self.max_evaluations:
            candidates = [
                (measured(c, s), c, s)
                for c, s in self._neighbors(cache_kb, slices)
                if len(scores) < self.max_evaluations or (c, s) in scores
            ]
            if not candidates:
                break
            best_score, best_c, best_s = max(candidates)
            if best_score <= current_score:
                break  # local optimum
            cache_kb, slices, current_score = best_c, best_s, best_score
            trajectory.append((cache_kb, slices, current_score))
        return TuningResult(
            best_cache_kb=cache_kb,
            best_slices=slices,
            best_score=current_score,
            evaluations=len(scores),
            trajectory=trajectory,
        )


def main() -> None:
    benchmark = "omnetpp"  # cache-hungry: the tuner must discover that
    budget = 24.0
    warmup, trace = make_workload(benchmark, length=1500, seed=11)

    probes = []

    def heartbeat(cache_kb: float, slices: int) -> float:
        """Measured utility-per-budget of one configuration."""
        result = simulate(trace, num_slices=slices, l2_cache_kb=cache_kb,
                          warmup_addresses=warmup)
        vcores = MARKET2.vcores_affordable(budget, cache_kb, slices)
        utility = UTILITY1.value(result.stats.ipc, vcores)
        probes.append((cache_kb, slices, result.stats.ipc))
        return utility

    tuner = AutoTuner(heartbeat, max_evaluations=14)
    result = tuner.tune(start_cache_kb=128, start_slices=1)

    print(f"auto-tuner probed {result.evaluations} configurations:")
    for cache_kb, slices, ipc in probes:
        print(f"  ({int(cache_kb):5d} KB, {slices} Slices) "
              f"-> measured IPC {ipc:.3f}")
    print(f"\ntuned choice : ({int(result.best_cache_kb)} KB, "
          f"{result.best_slices} Slices), utility {result.best_score:.3f}")

    choice = UtilityOptimizer(budget=budget).best(benchmark, UTILITY1,
                                                  MARKET2)
    print(f"model choice : ({int(choice.cache_kb)} KB, "
          f"{choice.slices} Slices)")
    print("\nWith a handful of probes the tuner finds a good cache-heavy "
          "configuration for this\ncache-hungry workload; a larger probe "
          "budget (or a model-based optimiser)\nreaches the global "
          "optimum - exactly the trade-off paper Section 4 describes.")


if __name__ == "__main__":
    main()
