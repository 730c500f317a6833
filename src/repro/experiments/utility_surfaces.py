"""Figure 14: utility surfaces for gcc and bzip under Utility1/Utility2.

The paper plots utility as a function of Slice count (x) and the number
of 64 KB banks on a log2 scale (y), showing that (a) changing the
utility function moves the peak drastically for the same workload, and
(b) changing the workload moves the peak for the same utility function.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.economics.market import MARKET2, Market
from repro.economics.optimizer import UtilityOptimizer
from repro.economics.utility import UTILITY1, UTILITY2, UtilityFunction
from repro.experiments.base import ExperimentResult

NAME = "utility_surfaces"

#: The paper's four panels.
PANELS: Tuple[Tuple[str, UtilityFunction], ...] = (
    ("gcc", UTILITY1),
    ("gcc", UTILITY2),
    ("bzip", UTILITY1),
    ("bzip", UTILITY2),
)

SurfaceKey = Tuple[str, str]
Surface = Dict[Tuple[float, int], float]


@dataclass(frozen=True)
class UtilitySurfacesResult(ExperimentResult):
    """Surfaces and peaks for the paper's four panels."""

    surfaces: Dict[SurfaceKey, Surface]
    peaks: Dict[SurfaceKey, Tuple[float, int]]


def run(market: Market = MARKET2,
        optimizer: Optional[UtilityOptimizer] = None,
        engine=None) -> UtilitySurfacesResult:
    """Figure 14 as a frozen result."""
    start = time.perf_counter()
    optimizer = optimizer or UtilityOptimizer(
        obs=getattr(engine, "obs", None))
    surfaces: Dict[SurfaceKey, Surface] = {}
    peaks: Dict[SurfaceKey, Tuple[float, int]] = {}
    for bench, utility in PANELS:
        surface = optimizer.utility_surface(bench, utility, market)
        surfaces[(bench, utility.name)] = surface
        peaks[(bench, utility.name)] = max(surface, key=surface.get)
    rows = tuple(
        {"benchmark": bench, "utility": uname,
         "peak_cache_kb": cfg[0], "peak_slices": cfg[1]}
        for (bench, uname), cfg in peaks.items()
    )
    return UtilitySurfacesResult(
        name=NAME,
        params={"market": market.name,
                "panels": [[b, u.name] for b, u in PANELS],
                "backend": "numpy"},
        rows=rows,
        elapsed=time.perf_counter() - start,
        surfaces=surfaces,
        peaks=peaks,
    )


def render(result: UtilitySurfacesResult) -> None:
    print("Figure 14: peak-utility configurations")
    for (bench, uname), (cache_kb, slices) in result.peaks.items():
        print(f"  {bench:5} {uname:9} peak at ({int(cache_kb)} KB, "
              f"{slices} Slices)")
    # Render one coarse ASCII surface as the paper renders heatmaps.
    key = ("gcc", "Utility2")
    surface = result.surfaces[key]
    slices_axis = sorted({s for _, s in surface})
    cache_axis = sorted({c for c, _ in surface})
    peak = max(surface.values())
    print(f"\n  gcc/Utility2 surface (rows: cache KB, cols: Slices; "
          "0-9 relative to peak)")
    for c in reversed(cache_axis):
        row = "".join(
            str(min(9, int(10 * surface[(c, s)] / peak)))
            for s in slices_axis
        )
        print(f"  {int(c):6} {row}")


def main() -> None:
    render(run())


if __name__ == "__main__":
    main()
