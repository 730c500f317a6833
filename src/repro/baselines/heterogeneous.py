"""Heterogeneous datacenter baseline (paper Section 5.9, Figure 17).

A datacenter is built from a *static* mix of big and small cores - in
the paper's study, big cores have 3 Slices + 256 KB L2 and small cores
1 Slice + 0 KB L2; hmmer peaks on the small core, gobmk on the big one.
As the application mix varies, different big:small ratios are optimal,
so no fixed mixture serves every workload mix - which is the argument
for the Sharing Architecture's dynamic composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.area.model import AreaModel
from repro.perfmodel.model import AnalyticModel


@dataclass(frozen=True)
class CoreType:
    """One fixed core design in the datacenter."""

    name: str
    cache_kb: float
    slices: int

    def area(self, area_model: AreaModel) -> float:
        return area_model.vcore_area(self.cache_kb, self.slices,
                                     include_uncore=True)


#: Paper Section 5.9's two design points.
BIG_CORE = CoreType(name="big", cache_kb=256.0, slices=3)
SMALL_CORE = CoreType(name="small", cache_kb=0.0, slices=1)


@dataclass(frozen=True)
class MixPoint:
    """Outcome of one (core ratio, application ratio) evaluation."""

    big_core_fraction: float
    app_a_fraction: float
    utility_per_area: float
    assignment: Tuple[Tuple[str, str], ...]  # (app, core type) pairs


class HeterogeneousDatacenter:
    """A fixed population of big/small cores serving a two-app mix."""

    def __init__(self, app_a: str, app_b: str,
                 big: CoreType = BIG_CORE, small: CoreType = SMALL_CORE,
                 total_cores: int = 100,
                 model: Optional[AnalyticModel] = None,
                 area_model: Optional[AreaModel] = None):
        if total_cores < 1:
            raise ValueError("need at least one core")
        self.app_a = app_a
        self.app_b = app_b
        self.big = big
        self.small = small
        self.total_cores = total_cores
        self.model = model or AnalyticModel()
        self.area_model = area_model or AreaModel()
        #: ``P`` of each (app, core type), the four values every mix uses.
        self._perf: Dict[Tuple[str, CoreType], float] = {
            (app, core): self.model.performance(app, core.cache_kb,
                                                core.slices)
            for app in (app_a, app_b) for core in (big, small)
        }

    def evaluate(self, big_fraction: float, app_a_fraction: float) -> MixPoint:
        """Throughput-per-area of one core mix serving one app mix.

        Jobs are assigned to core types greedily by performance gain, the
        best static scheduler a provider could run.
        """
        if not 0 <= big_fraction <= 1 or not 0 <= app_a_fraction <= 1:
            raise ValueError("fractions must be in [0, 1]")
        n_big = round(self.total_cores * big_fraction)
        n_small = self.total_cores - n_big
        n_a = round(self.total_cores * app_a_fraction)
        n_b = self.total_cores - n_a

        # Assign the app with the larger big-core *advantage* to big cores
        # first; the remainder spills onto the other type.
        adv_a = self._perf[self.app_a, self.big] / max(
            self._perf[self.app_a, self.small], 1e-12
        )
        adv_b = self._perf[self.app_b, self.big] / max(
            self._perf[self.app_b, self.small], 1e-12
        )
        first, n_first, second, n_second = (
            (self.app_a, n_a, self.app_b, n_b)
            if adv_a >= adv_b
            else (self.app_b, n_b, self.app_a, n_a)
        )

        assignment: List[Tuple[str, str]] = []
        total_perf = 0.0
        big_left, small_left = n_big, n_small
        for app, count in ((first, n_first), (second, n_second)):
            on_big = min(count, big_left)
            big_left -= on_big
            on_small = min(count - on_big, small_left)
            small_left -= on_small
            total_perf += on_big * self._perf[app, self.big]
            total_perf += on_small * self._perf[app, self.small]
            if on_big:
                assignment.append((app, self.big.name))
            if on_small:
                assignment.append((app, self.small.name))

        total_area = (n_big * self.big.area(self.area_model)
                      + n_small * self.small.area(self.area_model))
        return MixPoint(
            big_core_fraction=big_fraction,
            app_a_fraction=app_a_fraction,
            utility_per_area=total_perf / total_area if total_area else 0.0,
            assignment=tuple(assignment),
        )

    def sweep(self, big_fractions: Sequence[float],
              app_fractions: Sequence[float]) -> Dict[float, List[MixPoint]]:
        """Figure 17: utility/area surfaces over core and app ratios."""
        return {
            app_frac: [
                self.evaluate(big_frac, app_frac)
                for big_frac in big_fractions
            ]
            for app_frac in app_fractions
        }

    def optimal_big_fraction(self, app_a_fraction: float,
                             big_fractions: Sequence[float]) -> float:
        """The best core mix for one application mix."""
        points = [
            self.evaluate(bf, app_a_fraction) for bf in big_fractions
        ]
        best = max(points, key=lambda p: p.utility_per_area)
        return best.big_core_fraction
