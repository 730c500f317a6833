"""Parallel sweep engine with a persistent, content-addressed cache.

Quickstart::

    from repro.engine import SweepEngine, SweepSpec

    engine = SweepEngine(jobs=4)
    sweep = engine.performance_map(["gcc", "bzip"])
    print(sweep.grid("gcc")[(512.0, 4)])

    # Drop-in model for any API taking ``model=``:
    model = engine.grid_model(profiles=["gcc"])
    print(model.speedup("gcc", 128.0, 4))

See DESIGN.md ("The sweep engine") for the sweep-spec -> work-unit ->
pool -> cache pipeline and cache-invalidation rules.
"""

from repro.engine.cache import CACHE_VERSION, DEFAULT_CACHE_DIR, ResultCache
from repro.engine.core import (
    DEFAULT_PARALLEL_THRESHOLD,
    GridModel,
    SweepEngine,
    SweepResult,
    SweepSpec,
    SweepTimeoutError,
    WorkUnit,
    WorkUnitError,
    evaluate_unit,
    model_calibration,
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
    "DEFAULT_PARALLEL_THRESHOLD",
    "EngineMetrics",
    "GridModel",
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
    "model_calibration",
]
