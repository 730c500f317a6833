"""repro - The Sharing Architecture: sub-core configurability for IaaS clouds.

A full reproduction of Zhou & Wentzlaff, ASPLOS 2014.  The package layers:

* :mod:`repro.isa`, :mod:`repro.trace` - instruction substrate and the
  synthetic workload generator standing in for GEM5 traces;
* :mod:`repro.network`, :mod:`repro.cache` - switched on-chip networks
  and the distributed cache hierarchy;
* :mod:`repro.core` - Slices, VCores and the SSim cycle-level simulator
  (the paper's primary contribution);
* :mod:`repro.area` - the published 45 nm area decomposition;
* :mod:`repro.perfmodel` - the analytic ``P(c, s)`` model driving the
  evaluation sweeps;
* :mod:`repro.economics` - utility functions, markets, optimisers and
  market-efficiency comparisons;
* :mod:`repro.cloud` - fabric, hypervisor, scheduler, meta-programs and
  auto-tuner;
* :mod:`repro.baselines` - static fixed and heterogeneous baselines;
* :mod:`repro.engine` - the parallel sweep engine with its persistent
  result cache and run metrics;
* :mod:`repro.experiments` - one runner per paper table and figure.

Quickstart::

    from repro import AnalyticModel, UtilityOptimizer, MARKET2, UTILITY2

    model = AnalyticModel()
    print(model.performance("gcc", cache_kb=512, slices=4))

    optimizer = UtilityOptimizer(model=model)
    choice = optimizer.best("gcc", UTILITY2, MARKET2)
    print(choice.cache_kb, choice.slices, choice.vcores)

Sweep-engine quickstart (cycle-level grids with parallel fan-out and
an on-disk result cache)::

    from repro import SweepEngine

    engine = SweepEngine(jobs=2)
    sweep = engine.simulation_map(["gcc", "bzip"], cache_grid=(128.0,),
                                  slice_grid=(1, 2), trace_length=2000)
    print(sweep.grid("gcc")[(128.0, 2)], sweep.cache_hits)
"""

from repro.area import AreaModel
from repro.core import SharingSimulator, SimConfig, SimResult, VCore
from repro.core.simulator import simulate
from repro.economics import (
    MARKET1,
    MARKET2,
    MARKET3,
    STANDARD_MARKETS,
    STANDARD_UTILITIES,
    UTILITY1,
    UTILITY2,
    UTILITY3,
    Market,
    MarketEfficiencyComparison,
    UtilityFunction,
    UtilityOptimizer,
)
from repro.engine import (
    ResultCache,
    RunMetrics,
    SweepEngine,
    SweepResult,
    SweepSpec,
)
from repro.experiments.base import Experiment, ExperimentResult
from repro.perfmodel import AnalyticModel, CACHE_GRID_KB, SLICE_GRID
from repro.trace import (
    BenchmarkProfile,
    SyntheticTraceGenerator,
    Trace,
    all_benchmarks,
    generate_trace,
    get_profile,
)
from repro.trace.generator import make_workload

__version__ = "1.0.0"

__all__ = [
    "AreaModel",
    "SharingSimulator",
    "SimConfig",
    "SimResult",
    "VCore",
    "simulate",
    "MARKET1",
    "MARKET2",
    "MARKET3",
    "STANDARD_MARKETS",
    "STANDARD_UTILITIES",
    "UTILITY1",
    "UTILITY2",
    "UTILITY3",
    "Market",
    "MarketEfficiencyComparison",
    "UtilityFunction",
    "UtilityOptimizer",
    "AnalyticModel",
    "CACHE_GRID_KB",
    "SLICE_GRID",
    "Experiment",
    "ExperimentResult",
    "ResultCache",
    "RunMetrics",
    "SweepEngine",
    "SweepResult",
    "SweepSpec",
    "BenchmarkProfile",
    "SyntheticTraceGenerator",
    "Trace",
    "all_benchmarks",
    "generate_trace",
    "get_profile",
    "make_workload",
    "__version__",
]
