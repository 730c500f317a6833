"""Tests for the sweep engine: expansion, fan-out, grids, metrics."""

import json

import pytest

from repro.engine import ResultCache, RunMetrics, SweepEngine, SweepSpec
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


class TestEvaluation:
    def test_parallel_equals_serial(self, tmp_path):
        spec = SweepSpec(benchmarks=("gcc", "bzip", "astar", "hmmer"),
                         **TINY)
        serial = SweepEngine(
            jobs=1, cache=ResultCache(root=tmp_path / "a")
        ).run(spec)
        fanned = SweepEngine(
            jobs=2, cache=ResultCache(root=tmp_path / "b"),
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

    def test_repeated_benchmark_evaluates_once(self, engine):
        sweep = engine.run(SweepSpec(benchmarks=("gcc", "gcc", "bzip"),
                                     **TINY))
        assert sweep.units == len(sweep.values) == 2
        assert [s.benchmark for s in sweep.unit_stats] == ["gcc", "bzip"]
        assert engine.cache.puts == 2
        assert sweep.points == 4


class TestMetrics:
    def test_sweep_accounting(self, tmp_path):
        """Each ``SweepResult`` accounts for its own sweep, and the
        ``engine.*`` instruments keep the running totals."""
        obs = Observability()
        engine = SweepEngine(jobs=1, obs=obs,
                             cache=ResultCache(root=tmp_path / "cache"))
        grid = dict(cache_grid=(64.0, 128.0), slice_grid=(1, 2),
                    trace_length=200)
        cold = engine.simulation_map(["astar", "hmmer"], **grid)
        warm = engine.simulation_map(["astar", "hmmer"], **grid)
        assert (cold.units, cold.points) == (warm.units, warm.points) \
            == (2, 8)
        assert (cold.cache_hits, cold.cache_misses) == (0, 2)
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)
        totals = {name: snap.get("value", snap.get("count"))
                  for name, snap in obs.snapshot().items()
                  if name.startswith("engine.")}
        assert totals["engine.sweeps"] == 2
        assert totals["engine.units"] == 4
        assert totals["engine.points"] == 16
        assert totals["engine.cache.hits"] == 2
        assert totals["engine.cache.misses"] == 2
        assert totals["engine.unit_eval_s"] == 2
        assert totals["engine.sweep_s"] == 2

    def test_run_metrics_attribution(self, tmp_path):
        """``RunMetrics`` around a traced two-point simulation sweep:
        the sweep's span sits inside its experiment's span, the trace
        holds ``engine`` spans next to the ``runner`` span, and the
        export carries the per-unit latency distribution in the obs
        snapshot (no engine totals of its own)."""
        obs = Observability(trace=True)
        engine = SweepEngine(jobs=1, obs=obs,
                             cache=ResultCache(root=tmp_path / "cache"))
        run_metrics = RunMetrics(obs=obs)
        with run_metrics.measure("demo"):
            engine.simulation_map(["gcc"], **TINY)
        exported = run_metrics.to_dict()
        (entry,) = exported["experiments"]
        assert set(entry) == {"name", "wall_s"}
        assert entry["name"] == "demo"
        assert set(exported) == {"total_wall_s", "experiments", "obs"}
        assert run_metrics.to_json()

        events = obs.tracer.events()
        (sweep,) = [e for e in events if e["name"] == "sweep.simulation"]
        (experiment,) = [e for e in events
                         if e["name"] == "experiment.demo"]
        assert experiment["ts"] <= sweep["ts"]
        assert (sweep["ts"] + sweep["dur"]
                <= experiment["ts"] + experiment["dur"])
        trace_path = tmp_path / "run.trace.json"
        obs.export_trace(str(trace_path))
        doc = json.loads(trace_path.read_text())
        cats = {e.get("cat") for e in doc["traceEvents"]
                if e.get("ph") != "M"}
        assert {"engine", "runner"} <= cats

        dist = exported["obs"]["engine.unit_eval_s"]
        assert dist["count"] == 1
        assert {"count", "mean", "min", "p50", "p90", "p99",
                "max"} <= set(dist)

    def test_unit_spans_sit_where_the_units_ran(self, tmp_path):
        """A traced serial sweep draws its units one after another, in
        expansion order, inside the sweep's own span."""
        obs = Observability(trace=True)
        engine = SweepEngine(jobs=1, obs=obs,
                             cache=ResultCache(root=tmp_path / "cache"))
        engine.simulation_map(["gcc", "bzip", "astar"], **TINY)
        events = obs.tracer.events()
        (sweep,) = [e for e in events if e["name"] == "sweep.simulation"]
        units = [e for e in events if e["name"].startswith("unit.")]
        assert [e["name"] for e in units] == [
            "unit.gcc", "unit.bzip", "unit.astar"]
        assert sweep["ts"] <= units[0]["ts"]
        for before, after in zip(units, units[1:]):
            assert before["ts"] + before["dur"] <= after["ts"]
        assert (units[-1]["ts"] + units[-1]["dur"]
                <= sweep["ts"] + sweep["dur"])
