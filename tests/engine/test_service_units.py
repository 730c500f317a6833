"""Streaming-service work units: expansion, cache keys, service_map."""

import pytest

pytest.importorskip("numpy")

from repro.engine.cache import ResultCache
from repro.engine.core import SweepEngine, SweepSpec, WorkUnit, evaluate_unit
from repro.experiments.datacenter_stream import STREAM_METRICS

PARAMS = {
    "num_events": 200,
    "seed": 9,
    "admission_floor": 0.0,
    "active_target": 24,
    "reprice_every": 20,
}


def _service_unit(**overrides):
    params = dict(PARAMS)
    shard = overrides.pop("shard", 0)
    params.update(overrides)
    return WorkUnit(
        kind="service",
        profile_fields=(("name", f"stream/shard{shard}"),),
        cache_grid=(),
        slice_grid=(),
        calibration=(),
        service=tuple(sorted(params.items())),
        shard=shard,
    )


class TestExpansion:
    def test_service_spec_yields_shard_units(self):
        spec = SweepSpec(benchmarks=(), service=dict(PARAMS), shards=3)
        units = spec.expand()
        assert [u.kind for u in units] == ["service"] * 3
        assert [u.shard for u in units] == [0, 1, 2]
        assert [u.benchmark for u in units] == [
            "stream/shard0", "stream/shard1", "stream/shard2"]
        # Shards are independent streams, decorrelated by seed.
        seeds = [dict(u.service)["seed"] for u in units]
        assert seeds == [9, 10, 11]

    def test_points_count_events(self):
        unit = _service_unit()
        assert unit.points == PARAMS["num_events"]

    def test_result_key_is_shard_name(self):
        assert _service_unit(shard=2).result_key() == ("stream/shard2",)


class TestCacheKeys:
    def test_params_and_shard_are_content_addressed(self):
        base = _service_unit()
        assert base.cache_key() == _service_unit().cache_key()
        distinct = [
            _service_unit(num_events=400),
            _service_unit(seed=10),
            _service_unit(reprice_every=10),
            _service_unit(admission_floor=0.5),
            _service_unit(shard=1),
        ]
        keys = {u.cache_key() for u in distinct}
        assert base.cache_key() not in keys
        assert len(keys) == len(distinct)

    def test_grid_units_unaffected_by_service_fields(self):
        # The new unconditional key fields must hold inert defaults for
        # grid kinds, so they perturb every key uniformly (one cold
        # restart) rather than aliasing anything.
        from repro.perfmodel.model import profile_key

        unit = WorkUnit(
            kind="performance",
            profile_fields=profile_key("gcc"),
            cache_grid=(256.0,),
            slice_grid=(2,),
            calibration=(("comm_tolerance", 0.9),
                         ("mlp_per_slice", 1.0)),
        )
        fields = unit.key_fields()
        assert fields["service"] is None
        assert fields["shard"] == 0


class TestEvaluation:
    def test_evaluate_unit_returns_metric_rows(self):
        rows = evaluate_unit(_service_unit())
        assert len(rows) == len(STREAM_METRICS)
        grid = {(c, int(s)): v for c, s, v in rows}
        events = grid[(float(STREAM_METRICS.index("events")), 0)]
        assert events == PARAMS["num_events"]

    def test_evaluation_is_deterministic(self):
        unit = _service_unit()
        first = evaluate_unit(unit)
        second = evaluate_unit(unit)
        # Drop the wall-clock metrics; everything else is seeded.
        timing = {float(STREAM_METRICS.index(name))
                  for name in ("events_per_s", "wall_s",
                               "latency_p50_ms", "latency_p99_ms")}
        assert [r for r in first if r[0] not in timing] == \
            [r for r in second if r[0] not in timing]


class TestServiceMap:
    def test_service_map_runs_and_caches(self, tmp_path):
        engine = SweepEngine(jobs=1,
                             cache=ResultCache(root=str(tmp_path)))
        sweep = engine.service_map(PARAMS, shards=2)
        assert set(sweep.values) == {("stream/shard0",),
                                     ("stream/shard1",)}
        assert sweep.cache_misses == 2
        for key in sweep.values:
            grid = sweep.values[key]
            assert len(grid) == len(STREAM_METRICS)
        again = engine.service_map(PARAMS, shards=2)
        assert again.cache_hits == 2
