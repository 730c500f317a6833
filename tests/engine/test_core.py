"""Tests for the sweep engine: expansion, fan-out, grids, metrics."""

import json

import pytest

from repro.engine import (
    ResultCache,
    RunMetrics,
    SweepEngine,
    SweepSpec,
    evaluate_unit,
)
from repro.obs import Observability
from repro.trace.profiles import get_profile

#: Tiny simulation units: ~15-35 ms per grid point.
TINY = dict(cache_grid=(128.0,), slice_grid=(1, 2), trace_length=200)


@pytest.fixture
def engine(tmp_path):
    return SweepEngine(jobs=1, cache=ResultCache(root=tmp_path / "cache"))


class TestExpansion:
    def test_profile_objects_accepted(self):
        spec = SweepSpec(benchmarks=(get_profile("gcc"),))
        (unit,) = spec.expand()
        assert unit.benchmark == "gcc"

    def test_unknown_kind_rejected(self):
        spec = SweepSpec(benchmarks=("gcc",))
        (unit,) = spec.expand()
        from dataclasses import replace
        with pytest.raises(ValueError):
            evaluate_unit(replace(unit, kind="nonsense"))


class TestEvaluation:
    def test_parallel_equals_serial(self, tmp_path):
        spec = SweepSpec(benchmarks=("gcc", "bzip", "astar", "hmmer"),
                         **TINY)
        serial = SweepEngine(
            jobs=1, cache=ResultCache(root=tmp_path / "a")
        ).run(spec)
        fanned = SweepEngine(
            jobs=2, cache=ResultCache(root=tmp_path / "b"),
            parallel_threshold=1,
        ).run(spec)
        assert fanned.parallel
        assert not serial.parallel
        assert fanned.values == serial.values

    def test_small_sweeps_stay_serial(self, tmp_path):
        engine = SweepEngine(jobs=8,
                             cache=ResultCache(root=tmp_path / "c"))
        sweep = engine.run(SweepSpec(benchmarks=("astar",),
                                     cache_grid=(128.0,), slice_grid=(1,),
                                     trace_length=200))
        assert not sweep.parallel
        assert sweep.workers == 1


class TestMetrics:
    def test_sweep_accounting(self, engine):
        grid = dict(cache_grid=(64.0, 128.0), slice_grid=(1, 2),
                    trace_length=200)
        engine.simulation_map(["astar", "hmmer"], **grid)
        engine.simulation_map(["astar", "hmmer"], **grid)
        totals = engine.metrics.totals()
        assert totals["sweeps"] == 2
        assert totals["units"] == 4
        assert totals["points"] == 16
        assert totals["cache_hits"] == 2
        assert totals["cache_misses"] == 2
        assert totals["evaluated_points"] == 8
        assert totals["cache_hit_rate"] == 0.5

    def test_run_metrics_attribution(self, tmp_path):
        """``RunMetrics`` around a traced two-point simulation sweep:
        the sweep is attributed to its experiment, the trace holds
        ``engine`` spans next to the ``runner`` span, and the export
        carries the per-unit latency distributions."""
        obs = Observability(trace=True)
        engine = SweepEngine(jobs=1, obs=obs,
                             cache=ResultCache(root=tmp_path / "cache"))
        run_metrics = RunMetrics(engine=engine, obs=obs)
        with run_metrics.measure("demo"):
            engine.simulation_map(["gcc"], **TINY)
        exported = run_metrics.to_dict()
        (entry,) = exported["experiments"]
        assert entry["name"] == "demo"
        assert entry["engine"]["sweeps"] == 1
        assert exported["engine"]["jobs"] == engine.jobs
        assert run_metrics.to_json()

        trace_path = tmp_path / "run.trace.json"
        obs.export_trace(str(trace_path))
        doc = json.loads(trace_path.read_text())
        cats = {e.get("cat") for e in doc["traceEvents"]
                if e.get("ph") != "M"}
        assert {"engine", "runner"} <= cats

        dist = exported["engine"]["unit_distributions"]
        assert dist["evaluated_units"] + dist["cached_units"] > 0
        assert set(dist["eval_s"]) == {"count", "mean", "min", "p50",
                                       "p90", "p99", "max"}
