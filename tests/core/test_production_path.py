"""One production simulator path.

Without ``obs``, every entry point - ``simulate``, ``SharingSimulator``,
``simulate_sampled`` and engine simulation sweeps - runs the
structure-of-arrays core; the object model ``ReferenceSimulator`` runs
only for instrumented ``simulate(obs=...)`` calls (and as the test
reference).  Both entry points take their VCore from ``config.vcore``
unless overridden, and the SoA core refuses the one ``VCoreConfig``
field it cannot model instead of ignoring it.
"""

import pytest

from repro.core.batched import BatchedSimulator
from repro.core.config import SimConfig, VCoreConfig
from repro.core.simulator import (
    ReferenceSimulator, SharingSimulator, simulate,
)
from repro.obs import Observability
from repro.sampling import SamplingConfig, simulate_sampled
from repro.trace.materialize import get_workload

SAMPLING = SamplingConfig(interval=1000, detail=200, warmup=80, head=500,
                          jitter_seed=7)


@pytest.fixture(scope="module")
def workload():
    return get_workload("gcc", 2000, 1)


@pytest.fixture
def constructions(monkeypatch):
    """Count ``ReferenceSimulator`` constructions."""
    made = []
    original = ReferenceSimulator.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ReferenceSimulator, "__init__", counting)
    return made


@pytest.fixture
def no_reference(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("the object model ran on a production path")

    monkeypatch.setattr(ReferenceSimulator, "__init__", refuse)


class TestOnePath:
    def test_simulate_without_obs(self, workload, no_reference):
        warmup, trace = workload
        assert simulate(trace, num_slices=2,
                        warmup_addresses=warmup).stats.committed == 2000

    def test_sharing_simulator(self, workload, no_reference):
        warmup, trace = workload
        result = SharingSimulator(trace, num_slices=3,
                                  warmup_addresses=warmup).run()
        assert result.num_slices == 3

    def test_simulate_sampled(self, no_reference):
        warmup, trace = get_workload("gcc", 6000, 1)
        result = simulate_sampled(trace, num_slices=2, sampling=SAMPLING,
                                  warmup_addresses=warmup)
        assert result.sampled

    def test_engine_sweep(self, tmp_path, no_reference):
        from repro.engine import ResultCache, SweepEngine

        engine = SweepEngine(jobs=1, cache=ResultCache(root=str(tmp_path)))
        sweep = engine.simulation_map(["gcc"], cache_grid=(128.0,),
                                      slice_grid=(1, 2), trace_length=600,
                                      trace_seed=1)
        assert len(sweep.grid("gcc")) == 2

    def test_simulate_with_obs_runs_the_reference(self, workload,
                                                  constructions):
        warmup, trace = workload
        obs = Observability()
        result = simulate(trace, num_slices=2, warmup_addresses=warmup,
                          obs=obs)
        assert len(constructions) == 1
        snap = obs.snapshot()
        misses = sum(snap[f"sim.core.slice{s}.l1d.misses"]["value"]
                     for s in (0, 1))
        assert misses == result.stats.l1d_misses > 0
        assert snap["sim.cache.l2.misses"]["value"] > 0


class TestVCoreFromConfig:
    CONFIG = SimConfig(vcore=VCoreConfig(num_slices=4, l2_cache_kb=512.0))

    def test_simulate_honours_config_vcore(self, workload):
        warmup, trace = workload
        result = simulate(trace, config=self.CONFIG,
                          warmup_addresses=warmup)
        assert (result.num_slices, result.l2_cache_kb) == (4, 512.0)
        assert result == SharingSimulator(trace, self.CONFIG,
                                          warmup_addresses=warmup).run()

    def test_keywords_still_override(self, workload):
        warmup, trace = workload
        result = simulate(trace, num_slices=2, config=self.CONFIG,
                          warmup_addresses=warmup)
        assert (result.num_slices, result.l2_cache_kb) == (2, 512.0)

    def test_simulate_sampled_honours_config_vcore(self):
        warmup, trace = get_workload("gcc", 6000, 1)
        result = simulate_sampled(trace, config=self.CONFIG,
                                  sampling=SAMPLING,
                                  warmup_addresses=warmup)
        assert (result.num_slices, result.l2_cache_kb) == (4, 512.0)


class TestBankDistances:
    CONFIG = SimConfig(vcore=VCoreConfig(num_slices=2, l2_cache_kb=256.0,
                                         l2_bank_distances=(1, 9, 9, 9)))

    def test_soa_core_rejects_bank_distances(self, workload):
        warmup, trace = workload
        with pytest.raises(ValueError) as info:
            BatchedSimulator(trace, self.CONFIG, warmup)
        assert "l2_bank_distances" in str(info.value)
        assert "\n" not in str(info.value)
        with pytest.raises(ValueError):
            simulate(trace, config=self.CONFIG, warmup_addresses=warmup)

    def test_reference_models_them(self, workload):
        warmup, trace = workload
        far = ReferenceSimulator(trace, self.CONFIG,
                                 warmup_addresses=warmup).run()
        near = simulate(trace, num_slices=2, l2_cache_kb=256.0,
                        warmup_addresses=warmup)
        assert far.cycles > near.cycles


def test_batched_core_is_imported_lazily():
    """Importing the simulator API does not load the SoA core: the
    analytic sweeps import ``simulate`` and never simulate."""
    import os
    import subprocess
    import sys

    import repro

    code = ("import sys, repro.core.simulator, repro.sampling; "
            "print('repro.core.batched' in sys.modules)")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
