"""Simulation work units and the audit-proof cache key.

The perturbation regression walks every result-affecting knob -
``WorkUnit`` simulation fields, every ``SimConfig`` sub-dataclass field,
every ``SamplingConfig`` field - and asserts each one lands in a
*distinct* cache key.  A knob missing from the key silently aliases
results for different configurations, which is the worst failure mode a
result cache can have.
"""

import dataclasses

import pytest

from repro.core.config import (
    CacheConfig, CacheLevelConfig, SimConfig, SliceConfig, VCoreConfig,
)
from repro.engine.cache import ResultCache
from repro.engine.core import SweepEngine, SweepSpec, WorkUnit, evaluate_unit
from repro.perfmodel.model import profile_key
from repro.sampling import DEFAULT_SAMPLING, SamplingConfig


def _sim_unit(**overrides):
    base = dict(
        profile_fields=profile_key("gcc"),
        cache_grid=(256.0,),
        slice_grid=(2,),
        trace_length=3_000,
        trace_seed=1,
    )
    base.update(overrides)
    return WorkUnit(**base)


class TestExpansion:
    def test_simulate_spec_yields_simulation_units(self):
        spec = SweepSpec(benchmarks=("gcc", "mcf"), cache_grid=(256.0,),
                         slice_grid=(1, 2),
                         trace_length=2_000, trace_seed=3)
        units = spec.expand()
        assert [u.benchmark for u in units] == ["gcc", "mcf"]
        for unit in units:
            assert unit.trace_length == 2_000
            assert unit.trace_seed == 3

    def test_result_key_is_benchmark(self):
        unit = _sim_unit()
        assert unit.result_key() == ("gcc",)


class TestEvaluation:
    def test_exact_rows_match_direct_simulation(self):
        from repro.core.simulator import simulate
        from repro.trace.materialize import get_workload

        unit = _sim_unit()
        rows = evaluate_unit(unit)
        assert len(rows) == 1
        c, s, ipc = rows[0]
        warmup, trace = get_workload("gcc", 3_000, 1)
        direct = simulate(trace, num_slices=2, l2_cache_kb=256.0,
                          warmup_addresses=warmup)
        assert (c, s) == (256.0, 2)
        assert ipc == direct.ipc

    def test_sampled_unit_uses_sampling(self):
        cfg = SamplingConfig(interval=500, detail=100, warmup=40,
                             head=200, jitter_seed=5)
        sampling_key = tuple(sorted(cfg.key_fields().items()))
        exact_rows = evaluate_unit(_sim_unit(trace_length=6_000))
        sampled_rows = evaluate_unit(
            _sim_unit(trace_length=6_000, sampling=sampling_key))
        # Different estimator, close answers - but not the same number.
        assert sampled_rows[0][2] != exact_rows[0][2]
        assert sampled_rows[0][2] == pytest.approx(exact_rows[0][2],
                                                   rel=0.2)

    def test_engine_injects_sampling_into_simulation_units(self, tmp_path):
        engine = SweepEngine(jobs=1,
                             cache=ResultCache(root=str(tmp_path)),
                             sampling=DEFAULT_SAMPLING)
        sweep = engine.simulation_map(["gcc"], cache_grid=(256.0,),
                                      slice_grid=(1,), trace_length=2_000)
        assert sweep.grid("gcc")[(256.0, 1)] > 0
        # The same spec expanded standalone carries no sampling; the
        # engine stamped its config in, so the cached entry must be
        # keyed as sampled (a later exact run misses, never aliases).
        spec = SweepSpec(benchmarks=("gcc",), cache_grid=(256.0,),
                         slice_grid=(1,), trace_length=2_000)
        exact_unit = spec.expand()[0]
        assert engine.cache.get(exact_unit.cache_key()) is None


class TestKeyPerturbation:
    """Every result-affecting knob must move the cache key."""

    def test_workunit_simulation_fields(self):
        base = _sim_unit()
        keys = {
            "base": base.cache_key(),
            "length": _sim_unit(trace_length=3_001).cache_key(),
            "seed": _sim_unit(trace_seed=2).cache_key(),
            "profile": _sim_unit(
                profile_fields=profile_key("mcf")).cache_key(),
            "cache_grid": _sim_unit(cache_grid=(128.0,)).cache_key(),
            "slice_grid": _sim_unit(slice_grid=(4,)).cache_key(),
            "sampling": _sim_unit(sampling=tuple(sorted(
                DEFAULT_SAMPLING.key_fields().items()))).cache_key(),
        }
        assert len(set(keys.values())) == len(keys)

    def test_key_fields_are_the_simulation_inputs(self):
        # Exactly the unit's own fields, with the SimConfig as its
        # fingerprint: nothing that does not shape an IPC grid.
        assert set(_sim_unit().key_fields()) == {
            "profile", "cache_grid", "slice_grid", "trace_length",
            "trace_seed", "sim_config", "sampling"}
        assert set(_sim_unit().key_fields()) == {
            f.name.replace("_fields", "")
            for f in dataclasses.fields(WorkUnit)}

    def test_default_and_explicit_default_simconfig_agree(self):
        # sim_config=None runs SimConfig(); the key must say so
        # explicitly, not hash the None sentinel.
        implicit = _sim_unit()
        explicit = _sim_unit(sim_config=SimConfig())
        assert implicit.cache_key() == explicit.cache_key()

    @staticmethod
    def _perturb(value):
        if isinstance(value, bool):
            return not value
        if isinstance(value, int):
            return value + 1
        if isinstance(value, float):
            return value + 1.0
        if value == "bimodal":
            return "gshare"
        if value == "pc":
            return "dynamic"
        if value == "python":
            return "batched"
        return None

    def _assert_each_field_moves_key(self, obj, rebuild):
        base_key = rebuild(obj).cache_key()
        skipped = []
        for f in dataclasses.fields(obj):
            perturbed = self._perturb(getattr(obj, f.name))
            if perturbed is None:
                skipped.append(f.name)
                continue
            try:
                variant = dataclasses.replace(obj, **{f.name: perturbed})
            except ValueError:
                # Validation rejected the perturbation (bounded ranges
                # like Equation 3 slice counts or fractions in [0, 1));
                # halve instead of growing.
                variant = dataclasses.replace(
                    obj, **{f.name: getattr(obj, f.name) / 2})
            key = rebuild(variant).cache_key()
            assert key != base_key, (
                f"{type(obj).__name__}.{f.name} does not affect the "
                f"cache key - cached results would alias"
            )
        return skipped

    def test_every_simconfig_field_moves_key(self):
        skipped = self._assert_each_field_moves_key(
            SimConfig(),
            lambda cfg: _sim_unit(sim_config=cfg),
        )
        # Nested dataclasses are walked field-by-field below.
        assert set(skipped) <= {"slice_config", "cache_config", "vcore"}

    def test_every_sliceconfig_field_moves_key(self):
        self._assert_each_field_moves_key(
            SliceConfig(),
            lambda sc: _sim_unit(sim_config=SimConfig(slice_config=sc)),
        )

    def test_every_cacheconfig_field_moves_key(self):
        skipped = self._assert_each_field_moves_key(
            CacheConfig(),
            lambda cc: _sim_unit(sim_config=SimConfig(cache_config=cc)),
        )
        assert set(skipped) <= {"l1i", "l1d"}
        # The nested cache levels, too.
        self._assert_each_field_moves_key(
            CacheLevelConfig(size_kb=16.0),
            lambda lvl: _sim_unit(sim_config=SimConfig(
                cache_config=CacheConfig(l1d=lvl))),
        )

    def test_every_vcoreconfig_field_moves_key(self):
        skipped = self._assert_each_field_moves_key(
            VCoreConfig(num_slices=2),
            lambda vc: _sim_unit(sim_config=SimConfig(vcore=vc)),
        )
        assert not skipped

    def test_every_samplingconfig_field_moves_key(self):
        base = SamplingConfig(interval=1000, detail=200, warmup=80,
                              head=500, jitter_seed=7)

        def rebuild(cfg):
            return _sim_unit(
                sampling=tuple(sorted(cfg.key_fields().items())))

        self._assert_each_field_moves_key(base, rebuild)

    def test_sampled_vs_exact_never_alias(self):
        exact = _sim_unit()
        sampled = _sim_unit(sampling=tuple(
            sorted(DEFAULT_SAMPLING.key_fields().items())))
        assert exact.cache_key() != sampled.cache_key()
