"""Performance-area efficiency metrics (paper Section 5.5, Table 4).

``performance / area`` models throughput customers; ``performance^2 /
area`` and ``performance^3 / area`` model increasing preference for
single-thread performance (the paper notes the analogy to Energy*Delay^2
and Energy*Delay^3).  Optimal VCore configurations are found by
exhaustive search over the Equation 3 space.

The search is one ``perf**k / area`` tensor and an argmax per
(benchmark, metric).  Row-major (cache outer, slice inner) argmax ties
break on the first maximum, like a first-strictly-greater scalar loop.
The performance tensor reads ``model`` only through its
``comm_tolerance`` and ``mlp_per_slice`` (see
:mod:`repro.economics.tensor`, "Model contract").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.area.model import AreaModel
from repro.economics.tensor import performance_tensor
from repro.perfmodel.model import (
    AnalyticModel,
    CACHE_GRID_KB,
    SLICE_GRID,
    ProfileLike,
    _resolve,
)


@dataclass(frozen=True)
class EfficiencyMetric:
    """``performance^k / area`` for a preference exponent k."""

    name: str
    perf_exponent: float

    def __post_init__(self) -> None:
        if self.perf_exponent <= 0:
            raise ValueError("exponent must be positive")

    def value(self, performance: float, area: float) -> float:
        if area <= 0:
            raise ValueError("area must be positive")
        return (performance ** self.perf_exponent) / area


PERF_PER_AREA = EfficiencyMetric("performance/area", 1.0)
PERF2_PER_AREA = EfficiencyMetric("performance^2/area", 2.0)
PERF3_PER_AREA = EfficiencyMetric("performance^3/area", 3.0)
STANDARD_METRICS: Tuple[EfficiencyMetric, ...] = (
    PERF_PER_AREA,
    PERF2_PER_AREA,
    PERF3_PER_AREA,
)


@dataclass(frozen=True)
class ConfigurationScore:
    """One configuration's metric value."""

    cache_kb: float
    slices: int
    performance: float
    area: float
    score: float


def area_matrix(area_model: Optional[AreaModel] = None,
                cache_grid: Sequence[float] = CACHE_GRID_KB,
                slice_grid: Sequence[int] = SLICE_GRID):
    """The ``(cache, slices)`` VCore-area matrix (uncore included)."""
    area_model = area_model or AreaModel()
    return np.array([
        [area_model.vcore_area(cache_kb, slices, include_uncore=True)
         for slices in slice_grid]
        for cache_kb in cache_grid
    ])


def optimal_configuration(
    benchmark: ProfileLike,
    metric: EfficiencyMetric,
    model: Optional[AnalyticModel] = None,
    area_model: Optional[AreaModel] = None,
    cache_grid: Sequence[float] = CACHE_GRID_KB,
    slice_grid: Sequence[int] = SLICE_GRID,
) -> ConfigurationScore:
    """Exhaustively search Equation 3's space for the best configuration."""
    perf = performance_tensor([benchmark], cache_grid, slice_grid,
                              model=model)[0]
    area = area_matrix(area_model, cache_grid, slice_grid)
    score = (perf ** metric.perf_exponent) / area
    ci, si = divmod(int(np.argmax(score)), len(slice_grid))
    return ConfigurationScore(
        cache_kb=cache_grid[ci],
        slices=slice_grid[si],
        performance=float(perf[ci, si]),
        area=float(area[ci, si]),
        score=float(score[ci, si]),
    )


def efficiency_table(
    benchmarks: Sequence[str],
    metrics: Sequence[EfficiencyMetric] = STANDARD_METRICS,
    model: Optional[AnalyticModel] = None,
    area_model: Optional[AreaModel] = None,
):
    """Table 4: optimal (cache, slices) per benchmark per metric.

    One ``(benchmarks, cache, slices)`` performance tensor is reduced
    under every metric exponent, instead of re-walking the grid per
    (benchmark, metric).
    """
    cache_grid, slice_grid = CACHE_GRID_KB, SLICE_GRID
    names = [_resolve(b).name for b in benchmarks]
    perf = performance_tensor(benchmarks, cache_grid, slice_grid,
                              model=model)
    area = area_matrix(area_model, cache_grid, slice_grid)
    table = {}
    for metric in metrics:
        scores = (perf ** metric.perf_exponent) / area
        flat = scores.reshape(len(names), -1)
        winners = np.argmax(flat, axis=1)
        row = {}
        for bi, name in enumerate(names):
            ci, si = divmod(int(winners[bi]), len(slice_grid))
            row[name] = ConfigurationScore(
                cache_kb=cache_grid[ci],
                slices=slice_grid[si],
                performance=float(perf[bi, ci, si]),
                area=float(area[ci, si]),
                score=float(scores[bi, ci, si]),
            )
        table[metric.name] = row
    return table
