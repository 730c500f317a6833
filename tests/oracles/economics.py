"""Scalar economics oracles: the grid searches as plain Python loops.

Production evaluates every Equation 3 search on the numpy market kernel
(:mod:`repro.economics.tensor`).  These loops walk the same grid one
configuration at a time through :meth:`AnalyticModel.performance`,
:meth:`Market.vcores_affordable`, :meth:`UtilityFunction.value`,
:meth:`EfficiencyMetric.value` and :meth:`EnergyModel.energy_delay`,
keeping the *first strictly greater* value in (cache outer, slice
inner) order - the winner ``np.argmax`` must also pick (the first
strictly smaller for ``E*D^n``, like ``np.argmin``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.area.energy import EnergyModel
from repro.area.model import AreaModel
from repro.core.reconfig import ReconfigurationEngine
from repro.economics.auction import Allocation, Bidder, ClearingResult
from repro.economics.comparison import (
    Customer,
    MarketEfficiencyComparison,
    PairGain,
)
from repro.economics.efficiency import (
    STANDARD_METRICS,
    ConfigurationScore,
    EfficiencyMetric,
)
from repro.economics.market import MARKET2, Market
from repro.economics.optimizer import DEFAULT_BUDGET, OptimalChoice
from repro.economics.phases_analysis import (
    PhaseScheduleResult,
    _geometric_mean,
)
from repro.economics.utility import STANDARD_UTILITIES, UtilityFunction
from repro.perfmodel.model import (
    CACHE_GRID_KB,
    SLICE_GRID,
    AnalyticModel,
    ProfileLike,
    _resolve,
)
from repro.trace.phases import PhasedProfile

Config = Tuple[float, int]
GRID: List[Config] = [(c, s) for c in CACHE_GRID_KB for s in SLICE_GRID]


def best(benchmark: ProfileLike, utility: UtilityFunction, market: Market,
         budget: float = DEFAULT_BUDGET) -> OptimalChoice:
    """One customer's utility-maximising configuration (Table 6)."""
    model, choice = AnalyticModel(), None
    for cache_kb, slices in GRID:
        perf = model.performance(benchmark, cache_kb, slices)
        vcores = market.vcores_affordable(budget, cache_kb, slices)
        value = utility.value(perf, vcores)
        if choice is None or value > choice.utility:
            choice = OptimalChoice(_resolve(benchmark).name, utility.name,
                                   market.name, cache_kb, slices, vcores,
                                   perf, value)
    return choice


def table6(benchmarks: Sequence[ProfileLike],
           utilities: Sequence[UtilityFunction],
           markets: Sequence[Market]
           ) -> Dict[Tuple[str, str, str], OptimalChoice]:
    """Table 6 keyed like :meth:`UtilityOptimizer.table6`."""
    return {(m.name, u.name, _resolve(b).name): best(b, u, m)
            for m in markets for u in utilities for b in benchmarks}


def utility_surface(benchmark: ProfileLike, utility: UtilityFunction,
                    market: Market, budget: float = DEFAULT_BUDGET
                    ) -> Dict[Config, float]:
    """Figure 14: ``{(cache_kb, slices): U}`` over the grid."""
    model = AnalyticModel()
    return {(c, s): utility.value(model.performance(benchmark, c, s),
                                  market.vcores_affordable(budget, c, s))
            for c, s in GRID}


def efficiency_table(benchmarks: Sequence[str],
                     metrics: Sequence[EfficiencyMetric] = STANDARD_METRICS
                     ) -> Dict[str, Dict[str, ConfigurationScore]]:
    """Table 4: the ``performance^k / area`` optimum per metric and
    benchmark, keyed like :func:`repro.economics.efficiency_table`."""
    model, area_model = AnalyticModel(), AreaModel()
    table: Dict[str, Dict[str, ConfigurationScore]] = {}
    for metric in metrics:
        row = table.setdefault(metric.name, {})
        for bench in benchmarks:
            for cache_kb, slices in GRID:
                perf = model.performance(bench, cache_kb, slices)
                area = area_model.vcore_area(cache_kb, slices,
                                             include_uncore=True)
                score = metric.value(perf, area)
                if bench not in row or score > row[bench].score:
                    row[bench] = ConfigurationScore(cache_kb, slices,
                                                    perf, area, score)
    return table


def analyze_phases(phased: PhasedProfile,
                   metric: EfficiencyMetric) -> PhaseScheduleResult:
    """Table 7: per-phase optima against the best static configuration,
    mirroring :func:`repro.economics.phases_analysis.analyze_phases`
    with its default model, area model and reconfiguration costs."""
    model, area_model = AnalyticModel(), AreaModel()

    def metric_at(profile, cfg: Config) -> float:
        cache_kb, slices = cfg
        perf = model.performance(profile, cache_kb, slices)
        return metric.value(
            perf,
            area_model.vcore_area(cache_kb, slices, include_uncore=True),
        )

    per_phase = [max(GRID, key=lambda cfg: metric_at(phase.profile, cfg))
                 for phase in phased]
    dynamic_scores = [metric_at(phase.profile, cfg)
                      for phase, cfg in zip(phased, per_phase)]
    reconfig_cycles = ReconfigurationEngine().schedule_cost(per_phase)
    total_cycles = 0.0
    for phase, cfg in zip(phased, per_phase):
        perf = model.performance(phase.profile, cfg[0], cfg[1])
        total_cycles += phase.instructions / perf
    overhead_factor = total_cycles / (total_cycles + reconfig_cycles)
    static_cfg = max(GRID, key=lambda cfg: _geometric_mean(
        [metric_at(phase.profile, cfg) for phase in phased]))
    return PhaseScheduleResult(
        metric_name=metric.name,
        per_phase_configs=tuple(per_phase),
        static_config=static_cfg,
        dynamic_score=_geometric_mean(dynamic_scores) * overhead_factor,
        static_score=_geometric_mean(
            [metric_at(phase.profile, static_cfg) for phase in phased]),
        reconfig_cycles=reconfig_cycles,
    )


def energy_delay_surface(benchmark: ProfileLike,
                         delay_exponent: int) -> Dict[Config, float]:
    """``{(cache_kb, slices): E * D^n}`` over the grid."""
    model = EnergyModel()
    return {(c, s): model.energy_delay(benchmark, c, s, delay_exponent)
            for c, s in GRID}


def energy_best_config(benchmark: ProfileLike,
                       delay_exponent: int) -> Config:
    """The ``E * D^n``-minimising configuration (the first on ties)."""
    surface = energy_delay_surface(benchmark, delay_exponent)
    return min(GRID, key=surface.get)


class Comparison:
    """Figures 15/16 with per-config utility dicts, ``fsum``-of-logs
    geometric means and a double loop over customer pairs, mirroring
    :class:`~repro.economics.comparison.MarketEfficiencyComparison`."""

    def __init__(self, benchmarks: Sequence[str],
                 utilities: Sequence[UtilityFunction] = STANDARD_UTILITIES,
                 market: Market = MARKET2):
        self.utilities = list(utilities)
        self.customers = [Customer(b, u)
                          for b in benchmarks for u in self.utilities]
        self.utils = {c.key: utility_surface(c.benchmark, c.utility, market)
                      for c in self.customers}

    def _reference_config(self, customers: Sequence[Customer]) -> Config:
        best_cfg, best_score = None, None
        for cfg in GRID:
            values = [self.utils[c.key][cfg] for c in customers]
            score = math.exp(math.fsum(math.log(v) for v in values)
                             / len(values))
            if best_score is None or score > best_score:
                best_cfg, best_score = cfg, score
        return best_cfg

    def best_static_config(self) -> Config:
        return self._reference_config(self.customers)

    def best_config_for_utility(self, utility: UtilityFunction) -> Config:
        return self._reference_config(
            [c for c in self.customers if c.utility.name == utility.name])

    def _pair_gains(self, fixed: Sequence[float]) -> List[PairGain]:
        sharing = [max(self.utils[c.key].values()) for c in self.customers]
        keys = [c.key for c in self.customers]
        return [PairGain(keys[a], keys[b], sharing[a] + sharing[b],
                         fixed[a] + fixed[b])
                for a in range(len(keys)) for b in range(a + 1, len(keys))]

    def gains_vs_static(self) -> List[PairGain]:
        cfg = self.best_static_config()
        return self._pair_gains([self.utils[c.key][cfg]
                                 for c in self.customers])

    def gains_vs_heterogeneous(self) -> List[PairGain]:
        cfgs = {u.name: self.best_config_for_utility(u)
                for u in self.utilities}
        return self._pair_gains([self.utils[c.key][cfgs[c.utility.name]]
                                 for c in self.customers])

    def summary_vs_static(self) -> Dict[str, float]:
        return MarketEfficiencyComparison.summarize(self.gains_vs_static())

    def summary_vs_heterogeneous(self) -> Dict[str, float]:
        return MarketEfficiencyComparison.summarize(
            self.gains_vs_heterogeneous())


def clear(bidders: Sequence[Bidder], slice_supply: float,
          bank_supply: float, max_rounds: int = 60,
          fixed_cost: float = 8.0, rate: float = 0.3,
          tolerance: float = 0.05) -> ClearingResult:
    """Cold-start clearing with :meth:`SpotMarket.clear`'s defaults:
    every round re-optimizes each bidder with :func:`best`; prices move
    with damped excess demand clamped to +-2, floored at 0.01, from
    (2.0, 1.0); at least two rounds; settle (and ration if over-demanded)
    after five rounds of unchanged demand."""
    slice_price, bank_price, floor = 2.0, 1.0, 0.01
    converged = rationed = False
    stable, last_demand, allocations, rounds = 0, None, [], 0
    for rounds in range(1, max_rounds + 1):
        market = Market("spot", slice_price, bank_price, fixed_cost)
        allocations = []
        for bidder in bidders:
            choice = best(bidder.benchmark, bidder.utility, market,
                          bidder.budget)
            allocations.append(Allocation(bidder.name, choice.cache_kb,
                                          choice.slices, choice.vcores,
                                          choice.utility))
        slice_demand = sum(a.slices_demanded for a in allocations)
        bank_demand = sum(a.banks_demanded for a in allocations)
        slice_excess = slice_demand / slice_supply - 1.0
        bank_excess = bank_demand / bank_supply - 1.0
        no_overdemand = max(slice_excess, bank_excess) <= tolerance
        at_floor = max(slice_price, bank_price) <= floor * 1.01
        if rounds >= 2 and no_overdemand and (
                max(slice_excess, bank_excess) >= -tolerance or at_floor):
            converged = True
            break
        demand = (round(slice_demand, 1), round(bank_demand, 1))
        stable = stable + 1 if demand == last_demand else 0
        last_demand = demand
        if stable >= 5:
            converged, rationed = True, not no_overdemand
            break
        k = rate / (1.0 + rounds / 40.0)
        slice_price = max(floor, slice_price * math.exp(
            k * max(-2.0, min(2.0, slice_excess))))
        bank_price = max(floor, bank_price * math.exp(
            k * max(-2.0, min(2.0, bank_excess))))
    return ClearingResult(slice_price, bank_price, rounds, converged,
                          allocations, slice_supply, bank_supply, rationed)
