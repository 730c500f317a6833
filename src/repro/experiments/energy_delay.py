"""Extension experiment: Energy*Delay^n optimal configurations.

Paper Section 2.2 motivates its performance-preference utilities through
the energy literature: "P^2 or P^3 may be very reasonable metrics ...
these metrics have much similarity to Energy*Delay^2 and Energy*Delay^3
used in energy efficient computing research."  This experiment closes
the loop: it computes the ``E*D^n``-optimal VCore configurations from
the energy model and shows they drift with ``n`` exactly as the
``perf^k/area`` optima of Table 4 do - bigger exponents buy bigger
cores.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.area.energy import EnergyModel
from repro.experiments.base import ExperimentResult
from repro.trace.profiles import all_benchmarks

NAME = "energy_delay"

DELAY_EXPONENTS = (1, 2, 3)

EnergyTable = Dict[int, Dict[str, Tuple[float, int]]]


@dataclass(frozen=True)
class EnergyDelayResult(ExperimentResult):
    """``{delay_exponent: {benchmark: (cache_kb, slices)}}``."""

    table: EnergyTable


def run(benchmarks: Optional[Sequence[str]] = None,
        model: Optional[EnergyModel] = None,
        engine=None) -> EnergyDelayResult:
    """The Energy*Delay^n study as a frozen result."""
    start = time.perf_counter()
    benchmarks = list(benchmarks or all_benchmarks())
    model = model or EnergyModel()
    # One grid pass per benchmark serves every exponent.
    best = {bench: model.best_configs(bench, DELAY_EXPONENTS)
            for bench in benchmarks}
    table: EnergyTable = {
        n: {bench: best[bench][n] for bench in benchmarks}
        for n in DELAY_EXPONENTS
    }
    rows = tuple(
        {"delay_exponent": n, "benchmark": bench,
         "cache_kb": cfg[0], "slices": cfg[1]}
        for n, row in table.items()
        for bench, cfg in row.items()
    )
    return EnergyDelayResult(
        name=NAME,
        params={"benchmarks": benchmarks,
                "delay_exponents": list(DELAY_EXPONENTS)},
        rows=rows,
        elapsed=time.perf_counter() - start,
        table=table,
    )


def render(result: EnergyDelayResult) -> None:
    table = result.table
    benches = list(next(iter(table.values())))
    print("Energy*Delay^n optimal VCore configurations")
    print("benchmark   " + "  ".join(f"{'E*D^%d' % n:>12}" for n in table))
    for bench in benches:
        cells = [
            f"({int(table[n][bench][0])}K,{table[n][bench][1]}s)"
            for n in table
        ]
        print(f"{bench:11} " + "  ".join(f"{c:>12}" for c in cells))
    for n in DELAY_EXPONENTS:
        distinct = len(set(table[n].values()))
        print(f"E*D^{n}: {distinct} distinct optima across benchmarks")


def main() -> None:
    render(run())


if __name__ == "__main__":
    main()
