"""Figure 17: datacenter heterogeneity study.

The big/small core ratio is swept against the hmmer/gobmk application
ratio.  The paper's conclusion: "depending on application mix, different
ratios of big and small cores are required for optimal performance/area
efficiency.  A fixed mixture of big and small cores therefore cannot
always optimally service heterogeneous workloads in the cloud."
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.baselines.heterogeneous import HeterogeneousDatacenter, MixPoint
from repro.experiments.base import ExperimentResult

NAME = "datacenter_mix"

DEFAULT_BIG_FRACTIONS = tuple(i / 10 for i in range(11))
DEFAULT_APP_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class DatacenterMixResult(ExperimentResult):
    """Figure 17's surfaces and per-app-mix optimal core ratios."""

    surfaces: Dict[float, Tuple[MixPoint, ...]]
    optimal_big_fraction: Dict[float, float]
    apps: Tuple[str, str]


def run(app_a: str = "hmmer", app_b: str = "gobmk",
        big_fractions: Sequence[float] = DEFAULT_BIG_FRACTIONS,
        app_fractions: Sequence[float] = DEFAULT_APP_FRACTIONS,
        datacenter: Optional[HeterogeneousDatacenter] = None,
        engine=None) -> DatacenterMixResult:
    """Figure 17 as a frozen result."""
    start = time.perf_counter()
    if datacenter is None:
        datacenter = HeterogeneousDatacenter(app_a=app_a, app_b=app_b)
    surfaces = {
        app_frac: tuple(points)
        for app_frac, points in datacenter.sweep(
            big_fractions, app_fractions
        ).items()
    }
    optima = {
        app_frac: datacenter.optimal_big_fraction(app_frac, big_fractions)
        for app_frac in app_fractions
    }
    rows = tuple(
        {"app_a_fraction": app_frac, "optimal_big_fraction": big_frac}
        for app_frac, big_frac in optima.items()
    )
    return DatacenterMixResult(
        name=NAME,
        params={"app_a": app_a, "app_b": app_b,
                "big_fractions": list(big_fractions),
                "app_fractions": list(app_fractions)},
        rows=rows,
        elapsed=time.perf_counter() - start,
        surfaces=surfaces,
        optimal_big_fraction=optima,
        apps=(app_a, app_b),
    )


def render(result: DatacenterMixResult) -> None:
    app_a, app_b = result.apps
    print(f"Figure 17: big/small core mix serving {app_a}/{app_b}")
    print(f"  ({app_a} fraction) -> optimal big-core fraction")
    for app_frac, big_frac in result.optimal_big_fraction.items():
        print(f"  {app_frac:4.2f} -> {big_frac:4.2f}")
    distinct = len(set(result.optimal_big_fraction.values()))
    print(f"  distinct optimal mixes across app ratios: {distinct}")
    print("  (a fixed mixture cannot serve every mix optimally)"
          if distinct > 1 else "  WARNING: mixes did not diverge")


def main() -> None:
    render(run())


if __name__ == "__main__":
    main()
