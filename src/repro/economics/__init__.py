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

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "UtilityFunction": ".utility",
    "UTILITY1": ".utility",
    "UTILITY2": ".utility",
    "UTILITY3": ".utility",
    "STANDARD_UTILITIES": ".comparison",
    "Market": ".market",
    "MARKET1": ".market",
    "MARKET2": ".market",
    "MARKET3": ".market",
    "STANDARD_MARKETS": ".market",
    "UtilityOptimizer": ".optimizer",
    "OptimalChoice": ".optimizer",
    "EfficiencyMetric": ".efficiency",
    "PERF_PER_AREA": ".efficiency",
    "PERF2_PER_AREA": ".efficiency",
    "PERF3_PER_AREA": ".efficiency",
    "STANDARD_METRICS": ".efficiency",
    "optimal_configuration": ".efficiency",
    "MarketEfficiencyComparison": ".comparison",
    "PairGain": ".comparison",
    "PhaseScheduleResult": ".phases_analysis",
    "analyze_phases": ".phases_analysis",
    "MarketKernel": ".tensor",
    "resolve_backend": ".backend",
    # submodules
    "auction": ".auction",
    "backend": ".backend",
    "comparison": ".comparison",
    "efficiency": ".efficiency",
    "market": ".market",
    "optimizer": ".optimizer",
    "phases_analysis": ".phases_analysis",
    "tensor": ".tensor",
    "utility": ".utility",
})
