"""Customer utility maximisation (paper Section 5.6, Table 6).

A Cloud customer picks the VCore configuration ``(c, s)`` and replication
factor ``v`` that maximise their utility under their budget:

    maximise  U(P(c, s), v)
    where     v = B / (C_c * c + C_s * s)         (Equation 2)
              0 <= c <= 8 MB,  1 <= s <= 8        (Equation 3)

The search is exhaustive over the valid configuration grid, exactly as
the paper's evaluation ("an exhaustive search of performance for
different Slice count and Cache configurations", Section 5.5).

The vectorized market kernel of :mod:`repro.economics.tensor` performs
that search: one masked argmax per customer over a memoized utility
tensor, with each benchmark's ``P(c, s)`` row built once and shared
across every utility function and market that queries it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.economics.market import Market
from repro.economics.tensor import MarketKernel
from repro.economics.utility import UtilityFunction
from repro.perfmodel.model import (
    AnalyticModel,
    CACHE_GRID_KB,
    SLICE_GRID,
    ProfileLike,
    _resolve,
)

#: Default customer budget: enough for roughly a dozen equal-area Slices.
DEFAULT_BUDGET = 24.0


@dataclass(frozen=True)
class OptimalChoice:
    """A customer's utility-maximising purchase."""

    benchmark: str
    utility_name: str
    market_name: str
    cache_kb: float
    slices: int
    vcores: float
    performance: float
    utility: float


class UtilityOptimizer:
    """Maximises customer utility over the configuration grid.

    When an :class:`~repro.engine.core.SweepEngine` is supplied (and no
    explicit ``model``), performance grids are sourced through the
    engine's :class:`~repro.engine.core.GridModel` - same numbers, but
    batch-evaluated with cache-and-fan-out semantics.

    ``model`` reaches :meth:`best`, :meth:`table6` and
    :meth:`utility_surface` through the market kernel, which reads only
    its ``comm_tolerance`` and ``mlp_per_slice`` and never calls an
    overridden ``performance`` (see :mod:`repro.economics.tensor`,
    "Model contract").  :meth:`utility_at` does call
    ``model.performance``.
    """

    def __init__(self, model: Optional[AnalyticModel] = None,
                 budget: float = DEFAULT_BUDGET,
                 cache_grid: Sequence[float] = CACHE_GRID_KB,
                 slice_grid: Sequence[int] = SLICE_GRID,
                 engine=None, obs=None):
        if budget <= 0:
            raise ValueError("budget must be positive")
        self.cache_grid = tuple(cache_grid)
        self.slice_grid = tuple(slice_grid)
        if model is None and engine is not None:
            model = engine.grid_model(cache_grid=self.cache_grid,
                                      slice_grid=self.slice_grid)
        self.model = model or AnalyticModel()
        self.budget = budget
        if obs is None and engine is not None:
            obs = getattr(engine, "obs", None)
        from repro.obs import OBS_OFF

        self._obs = obs or OBS_OFF
        scope = self._obs.scope("economics.optimizer")
        self._c_grid_hits = scope.counter("perf_grid.hits")
        self._c_grid_misses = scope.counter("perf_grid.misses")
        #: ``utility_at``'s P(c, s) tables, one per profile, shared
        #: across every (utility, market) query.
        self._perf_grids: Dict[object, Dict[Tuple[float, int], float]] = {}
        self.kernel = MarketKernel(
            model=self.model, cache_grid=self.cache_grid,
            slice_grid=self.slice_grid, obs=self._obs,
        )

    def prime(self, benchmarks: Sequence[ProfileLike]) -> None:
        """Batch-evaluate the grid for ``benchmarks`` ahead of queries.

        Engine-backed :class:`~repro.engine.core.GridModel`\\ s fill
        their table in one fan-out; the kernel builds all performance
        rows in one broadcasted pass.
        """
        prime = getattr(self.model, "prime", None)
        if prime is not None:
            prime(benchmarks)
        self.kernel.prime(benchmarks)

    # ------------------------------------------------------------------
    # single configurations (memoized model grids)
    # ------------------------------------------------------------------

    def _perf_grid(self, benchmark: ProfileLike
                   ) -> Dict[Tuple[float, int], float]:
        """One profile's ``{(cache_kb, slices): P}`` table, built once."""
        prof = _resolve(benchmark)
        grid = self._perf_grids.get(prof)
        if grid is not None:
            self._c_grid_hits.inc()
            return grid
        self._c_grid_misses.inc()
        grid = {
            (cache_kb, slices): self.model.performance(prof, cache_kb,
                                                       slices)
            for cache_kb in self.cache_grid
            for slices in self.slice_grid
        }
        self._perf_grids[prof] = grid
        return grid

    def utility_at(self, benchmark: ProfileLike, utility: UtilityFunction,
                   market: Market, cache_kb: float, slices: int) -> float:
        """Utility of one specific configuration under the budget."""
        perf = self._perf_grid(benchmark).get((cache_kb, slices))
        if perf is None:  # off-grid query: straight through the model
            perf = self.model.performance(benchmark, cache_kb, slices)
        vcores = market.vcores_affordable(self.budget, cache_kb, slices)
        return utility.value(perf, vcores)

    def best(self, benchmark: ProfileLike, utility: UtilityFunction,
             market: Market) -> OptimalChoice:
        """The utility-maximising configuration for one customer."""
        cache_kb, slices, vcores, perf, value = self.kernel.for_market(
            market
        ).best(benchmark, utility, self.budget)
        return OptimalChoice(
            benchmark=_resolve(benchmark).name,
            utility_name=utility.name,
            market_name=market.name,
            cache_kb=cache_kb,
            slices=slices,
            vcores=vcores,
            performance=perf,
            utility=value,
        )

    def table6(self, benchmarks: Sequence[ProfileLike],
               utilities: Sequence[UtilityFunction],
               markets: Sequence[Market]
               ) -> Dict[Tuple[str, str, str], OptimalChoice]:
        """Paper Table 6: optimal configurations per market per utility."""
        self.prime(benchmarks)
        return {
            (market.name, utility.name, _resolve(bench).name): self.best(
                bench, utility, market
            )
            for market in markets
            for utility in utilities
            for bench in benchmarks
        }

    def utility_surface(self, benchmark: ProfileLike,
                        utility: UtilityFunction,
                        market: Market) -> Dict[Tuple[float, int], float]:
        """Figure 14: the full utility surface over (cache, slices)."""
        grid = self.kernel.for_market(market).utility_grid(
            benchmark, utility, self.budget)
        return {
            (cache_kb, slices): float(grid[ci, si])
            for ci, cache_kb in enumerate(self.cache_grid)
            for si, slices in enumerate(self.slice_grid)
        }
