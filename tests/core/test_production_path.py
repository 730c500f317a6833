"""One production simulator path.

Every entry point - ``simulate`` with or without ``obs``,
``SharingSimulator``, ``simulate_sampled`` and engine simulation sweeps
- runs the structure-of-arrays core; the object model
(``tests/oracles/objmodel``) is only the test reference.  Both entry
points take their VCore from ``config.vcore`` unless overridden.
"""

import pytest

from repro.core.batched import BatchedSimulator
from repro.core.config import SimConfig, VCoreConfig
from repro.core.simulator import SharingSimulator, simulate
from repro.obs import Observability
from repro.sampling import SamplingConfig, simulate_sampled
from repro.trace.materialize import get_workload
from tests.oracles.objmodel.simulator import ReferenceSimulator

SAMPLING = SamplingConfig(interval=1000, detail=200, warmup=80, head=500,
                          jitter_seed=7)


@pytest.fixture(scope="module")
def workload():
    return get_workload("gcc", 2000, 1)


@pytest.fixture
def core_runs(monkeypatch):
    """Count ``BatchedSimulator.run`` calls."""
    runs = []
    original = BatchedSimulator.run

    def counting(self):
        runs.append(self)
        return original(self)

    monkeypatch.setattr(BatchedSimulator, "run", counting)
    return runs


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

    def test_simulate_with_obs_runs_the_production_core(
            self, workload, core_runs, no_reference):
        warmup, trace = workload
        obs = Observability()
        result = simulate(trace, num_slices=2, warmup_addresses=warmup,
                          obs=obs)
        assert len(core_runs) == 1
        snap = obs.snapshot()
        misses = sum(snap[f"sim.core.slice{s}.l1d.misses"]["value"]
                     for s in (0, 1))
        assert misses == result.stats.l1d_misses > 0
        assert snap["sim.cache.l2.misses"]["value"] > 0
        assert (snap["sim.network.son.messages"]["value"]
                == result.stats.operand_requests > 0)


class TestNoInstructionObjects:
    """The production path reads the trace's columns: generating a
    workload and simulating it, exactly or sampled, in-process or
    through the engine, builds no ``Instruction``."""

    @pytest.fixture
    def no_instructions(self, monkeypatch):
        from repro.isa import Instruction
        from repro.trace import materialize

        def refuse(self, *args, **kwargs):
            raise AssertionError("an Instruction was built on a "
                                 "production path")

        materialize.clear()
        monkeypatch.setattr(Instruction, "__init__", refuse)
        yield
        materialize.clear()

    def test_generate_and_simulate(self, tmp_path, no_instructions):
        from repro.engine import ResultCache, SweepEngine

        warmup, trace = get_workload("gcc", 6000, 1)
        assert simulate(trace, num_slices=2,
                        warmup_addresses=warmup).stats.committed == 6000
        assert simulate_sampled(trace, num_slices=2, sampling=SAMPLING,
                                warmup_addresses=warmup).sampled
        engine = SweepEngine(jobs=1, cache=ResultCache(root=str(tmp_path)))
        sweep = engine.simulation_map(["mcf"], cache_grid=(128.0,),
                                      slice_grid=(1, 2), trace_length=600,
                                      trace_seed=1)
        assert len(sweep.grid("mcf")) == 2

    def test_parsec_threads(self, no_instructions):
        from repro.core.multivcore import MultiVCoreSimulator

        result = MultiVCoreSimulator("dedup", num_vcores=2,
                                     l2_cache_kb=256.0,
                                     trace_length=600).run()
        assert result.total_committed == 1200

    def test_the_guard_trips(self, no_instructions):
        _, trace = get_workload("gcc", 10, 1)
        with pytest.raises(AssertionError, match="Instruction was built"):
            trace[0]


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


#: Code that exercises the simulation path: the simulator API, an
#: in-process engine and one exact run.
_EXACT_RUN = """
import repro.core.simulator
from repro import engine
from repro.core.simulator import SharingSimulator
from repro.trace.generator import make_workload

engine.SweepEngine(jobs=1)
warmup, trace = make_workload("gcc", 200, seed=1)
SharingSimulator(trace, num_slices=2, l2_cache_kb=128.0,
                 warmup_addresses=warmup).run()
"""

#: Code that loads every artefact ``repro experiments`` runs.
_ARTEFACTS = """
import importlib
from repro.experiments import runner

for name in runner.NAMES:
    importlib.import_module(f"repro.experiments.{name}")
"""

#: The object-model modules that moved to ``tests/oracles/objmodel``.
_OBJECT_MODEL = tuple(
    f"repro.{name}" for name in (
        "core.vcore", "core.branch", "core.lsq", "core.rob", "core.issue",
        "core.dyninst", "cache.hierarchy", "cache.mshr",
        "cache.storebuffer", "cache.setassoc", "network.switched",
        "network.messages"))

#: What a pure-Python path must not import: numpy, the market kernel,
#: the cloud layer and the process-pool machinery.
_HEAVY = ("numpy", "repro.cloud", "repro.economics.tensor",
          "concurrent.futures.process")


def _cli(*argv):
    """Code that runs ``python -m repro *argv``."""
    return ("import runpy, sys\n"
            f"sys.argv = {['repro', *argv]!r}\n"
            "runpy.run_module('repro', run_name='__main__', alter_sys=True)")


def _repro_layers():
    import pkgutil

    import repro

    return tuple(f"repro.{m.name}" for m in pkgutil.iter_modules(
        repro.__path__) if m.name != "_lazy")


@pytest.mark.parametrize("code, forbidden", [
    pytest.param("import repro", ("numpy",) + _repro_layers(),
                 id="import-repro"),
    # The analytic sweeps import ``simulate`` and never simulate, so
    # the simulator API must not load the SoA core, the obs layer or
    # any module of the object model that left ``src``.
    pytest.param("import repro.core.simulator, repro.sampling",
                 ("repro.core.batched", "repro.obs") + _OBJECT_MODEL,
                 id="simulator-api"),
    pytest.param(_EXACT_RUN, _HEAVY, id="exact-run"),
    # The Fig 12/13 artefacts are analytic; only their
    # ``run_simulated()`` anchors load the simulator.
    pytest.param(_ARTEFACTS, ("repro.core.simulator",),
                 id="experiments-artefacts"),
    pytest.param(_cli("list"), ("numpy",), id="cli-list"),
    pytest.param(_cli("simulate", "--help"), ("numpy",),
                 id="cli-simulate-help"),
])
def test_import_footprint(code, forbidden, tmp_path):
    """A fresh interpreter imports only what it runs (DESIGN.md §3):
    ``sys.modules`` at exit holds none of ``forbidden``."""
    import json
    import os
    import subprocess
    import sys

    import repro

    dump = tmp_path / "modules.json"
    prelude = ("import atexit, json, sys\n"
               "def _dump():\n"
               f"    with open({str(dump)!r}, 'w') as fh:\n"
               "        json.dump(sorted(sys.modules), fh)\n"
               "atexit.register(_dump)\n")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    subprocess.run([sys.executable, "-c", prelude + code], check=True,
                   capture_output=True, cwd=tmp_path,
                   env={**os.environ, "PYTHONPATH": src})
    loaded = set(json.loads(dump.read_text()))
    assert "repro" in loaded
    assert not {name for name in loaded for prefix in forbidden
                if name == prefix or name.startswith(prefix + ".")}
