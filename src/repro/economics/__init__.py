"""The economic model (paper Sections 2, 5.5-5.8).

The Sharing Architecture's headline contribution is not raw performance
but *market efficiency*: by pricing Slices and cache banks individually,
an IaaS provider lets each customer maximise their own utility function
``U(c, s, v)`` under a budget, and total utility (hence provider profit)
rises relative to any fixed architecture.

This package implements:

* the three example utility functions of Table 5 (throughput-oriented
  through single-thread-performance-oriented);
* the budget constraint of Equations 2-3;
* the three markets of Section 5.7 (resource prices tracking or departing
  from area);
* performance-area efficiency metrics (Table 4);
* the utility optimiser (Table 6) and the market-efficiency comparisons
  against static fixed and heterogeneous architectures (Figures 15-16);
* the dynamic-phase analysis (Table 7).

Every grid search runs on the vectorized market kernel of
:mod:`repro.economics.tensor`.  The scalar loops it replaced live on as
test oracles; see DESIGN.md's "Vectorized market kernel" section for
the tie-breaking and fp-tolerance policy the kernel is held to.
"""

from repro.economics.utility import (
    UtilityFunction,
    UTILITY1,
    UTILITY2,
    UTILITY3,
    STANDARD_UTILITIES,
)
from repro.economics.market import Market, MARKET1, MARKET2, MARKET3, STANDARD_MARKETS
from repro.economics.optimizer import UtilityOptimizer, OptimalChoice
from repro.economics.efficiency import (
    EfficiencyMetric,
    PERF_PER_AREA,
    PERF2_PER_AREA,
    PERF3_PER_AREA,
    STANDARD_METRICS,
    optimal_configuration,
)
from repro.economics.comparison import (
    MarketEfficiencyComparison,
    PairGain,
)
from repro.economics.phases_analysis import PhaseScheduleResult, analyze_phases
from repro.economics.backend import resolve_backend
from repro.economics.tensor import MarketKernel

__all__ = [
    "UtilityFunction",
    "UTILITY1",
    "UTILITY2",
    "UTILITY3",
    "STANDARD_UTILITIES",
    "Market",
    "MARKET1",
    "MARKET2",
    "MARKET3",
    "STANDARD_MARKETS",
    "UtilityOptimizer",
    "OptimalChoice",
    "EfficiencyMetric",
    "PERF_PER_AREA",
    "PERF2_PER_AREA",
    "PERF3_PER_AREA",
    "STANDARD_METRICS",
    "optimal_configuration",
    "MarketEfficiencyComparison",
    "PairGain",
    "PhaseScheduleResult",
    "analyze_phases",
    "MarketKernel",
    "resolve_backend",
]
