"""repro - The Sharing Architecture: sub-core configurability for IaaS clouds.

A full reproduction of Zhou & Wentzlaff, ASPLOS 2014.  The package layers:

* :mod:`repro.isa`, :mod:`repro.trace` - instruction substrate and the
  synthetic workload generator standing in for GEM5 traces;
* :mod:`repro.network`, :mod:`repro.cache` - the on-chip mesh and the
  distributed cache hierarchy's geometry and coherence directory;
* :mod:`repro.core` - Slices, VCores and the SSim cycle-level simulator
  (the paper's primary contribution);
* :mod:`repro.area` - the published 45 nm area decomposition;
* :mod:`repro.perfmodel` - the analytic ``P(c, s)`` model driving the
  evaluation sweeps;
* :mod:`repro.economics` - utility functions, markets, optimisers and
  market-efficiency comparisons;
* :mod:`repro.cloud` - fabric, hypervisor and the allocation service
  (the Section 4 market loop);
* :mod:`repro.baselines` - the heterogeneous big/small datacenter
  baseline;
* :mod:`repro.engine` - the parallel sweep engine with its persistent
  result cache and run metrics;
* :mod:`repro.experiments` - one runner per paper table and figure.

Every package attribute (these layers and the names below) is imported
the first time it is read, so ``import repro`` loads no layer and a run
pays only for the layers it uses (see :mod:`repro._lazy`).

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

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AreaModel": ".area.model",
    "SharingSimulator": ".core.simulator",
    "SimConfig": ".core.config",
    "SimResult": ".core.simulator",
    "simulate": ".core.simulator",
    "MARKET1": ".economics.market",
    "MARKET2": ".economics.market",
    "MARKET3": ".economics.market",
    "STANDARD_MARKETS": ".economics.market",
    "STANDARD_UTILITIES": ".economics.utility",
    "UTILITY1": ".economics.utility",
    "UTILITY2": ".economics.utility",
    "UTILITY3": ".economics.utility",
    "Market": ".economics.market",
    "MarketEfficiencyComparison": ".economics.comparison",
    "UtilityFunction": ".economics.utility",
    "UtilityOptimizer": ".economics.optimizer",
    "AnalyticModel": ".perfmodel.model",
    "CACHE_GRID_KB": ".perfmodel.model",
    "SLICE_GRID": ".perfmodel.model",
    "Experiment": ".experiments.base",
    "ExperimentResult": ".experiments.base",
    "ResultCache": ".engine.cache",
    "RunMetrics": ".engine.metrics",
    "SweepEngine": ".engine.core",
    "SweepResult": ".engine.core",
    "SweepSpec": ".engine.core",
    "BenchmarkProfile": ".trace.profiles",
    "SyntheticTraceGenerator": ".trace.generator",
    "Trace": ".trace.records",
    "all_benchmarks": ".trace.profiles",
    "generate_trace": ".trace.generator",
    "get_profile": ".trace.profiles",
    "make_workload": ".trace.generator",
    # subpackages
    "area": ".area",
    "baselines": ".baselines",
    "cache": ".cache",
    "cloud": ".cloud",
    "core": ".core",
    "economics": ".economics",
    "engine": ".engine",
    "experiments": ".experiments",
    "isa": ".isa",
    "network": ".network",
    "obs": ".obs",
    "perfmodel": ".perfmodel",
    "sampling": ".sampling",
    "trace": ".trace",
})
__all__.append("__version__")
