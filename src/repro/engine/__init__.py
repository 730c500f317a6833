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

from repro.engine.cache import CACHE_VERSION, DEFAULT_CACHE_DIR, ResultCache
from repro.engine.core import (
    SweepEngine,
    SweepResult,
    SweepSpec,
    SweepTimeoutError,
    WorkUnit,
    WorkUnitError,
    evaluate_unit,
)
from repro.engine.metrics import (
    EngineMetrics,
    RunMetrics,
    SweepRecord,
    UnitStat,
)

__all__ = [
    "CACHE_VERSION",
    "DEFAULT_CACHE_DIR",
    "EngineMetrics",
    "ResultCache",
    "RunMetrics",
    "SweepEngine",
    "SweepRecord",
    "SweepResult",
    "SweepSpec",
    "SweepTimeoutError",
    "UnitStat",
    "WorkUnit",
    "WorkUnitError",
    "evaluate_unit",
]
