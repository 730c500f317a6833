"""Parallel sweep engine with a persistent, content-addressed cache.

Quickstart (a four-point cycle-level sweep; a warm rerun is served
from the cache)::

    from repro.engine import SweepEngine

    engine = SweepEngine(jobs=2)
    sweep = engine.simulation_map(["gcc", "bzip"], cache_grid=(128.0,),
                                  slice_grid=(1, 2), trace_length=2000)
    print(sweep.grid("gcc")[(128.0, 2)], sweep.cache_hits)

See DESIGN.md ("The sweep engine") for the sweep-spec -> work-unit ->
pool -> cache pipeline and cache-invalidation rules.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CACHE_VERSION": ".cache",
    "DEFAULT_CACHE_DIR": ".cache",
    "EngineMetrics": ".metrics",
    "ResultCache": ".cache",
    "RunMetrics": ".metrics",
    "SweepEngine": ".core",
    "SweepRecord": ".metrics",
    "SweepResult": ".core",
    "SweepSpec": ".core",
    "SweepTimeoutError": ".core",
    "UnitStat": ".metrics",
    "WorkUnit": ".core",
    "WorkUnitError": ".core",
    "evaluate_unit": ".core",
    # submodules
    "cache": ".cache",
    "core": ".core",
    "metrics": ".metrics",
})
