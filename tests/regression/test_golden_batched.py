"""Golden regression: the production SoA core vs checked-in seed-run values.

``fixtures/golden_batched.json`` pins the object model's seed run of the
simulated Figure 12 (Slice scaling at 128 KB) and Figure 13 (cache
scaling at 4 Slices) points for the gcc trace.  The structure-of-arrays
core that production ``simulate()`` runs must reproduce every pinned
cycle count exactly and every pinned IPC at **0 ulp** (``==`` on the
float, no tolerance): its contract is bit-identity, so "close" is a
regression.

To regenerate after a *deliberate* simulator change, run
``tests.oracles.objmodel.simulator.ReferenceSimulator`` (the object
model) over the grids named in the fixture and rewrite the JSON - never
regenerate from ``simulate()``, ``SharingSimulator`` or
``BatchedSimulator`` (that would pin the thing under test to itself).

The cache-key tests prove the sweep engine never serves a result
recorded under one ``SimConfig.backend`` value to a request for
another: the field selects no core any more, but it still reaches the
content address through ``SimConfig.fingerprint()``, so cache keys did
not change when the choice went.
"""

import json
from pathlib import Path

import pytest

from repro.core.batched import BatchedSimulator
from repro.core.config import SimConfig
from repro.trace.materialize import get_workload

FIXTURE = Path(__file__).parent / "fixtures" / "golden_batched.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def workload(golden):
    return get_workload(golden["benchmark"], golden["trace_length"],
                        golden["trace_seed"])


def _run(workload, ns, kb):
    warmup, trace = workload
    return BatchedSimulator(trace, SimConfig().with_vcore(ns, kb),
                            warmup).run()


class TestBatchedReproducesGolden:
    def test_fig12_slice_scaling_exact(self, golden, workload):
        points = golden["fig12_128kb"]
        for ns in sorted(points, key=int):
            result = _run(workload, int(ns), 128.0)
            want = points[ns]
            assert result.stats.cycles == want["cycles"], ns
            # 0 ulp: the extrapolation-free IPC is cycles-derived, so
            # equality must be exact, not approximate.
            assert result.ipc == want["ipc"], ns

    def test_fig13_cache_scaling_exact(self, golden, workload):
        points = golden["fig13_4slices"]
        for kb in sorted(points, key=int):
            result = _run(workload, 4, float(kb))
            want = points[kb]
            assert result.stats.cycles == want["cycles"], kb
            assert result.stats.l2_misses == want["l2_misses"], kb
            assert result.ipc == want["ipc"], kb


class TestEngineCacheKeysSeeBackend:
    def _unit(self, sim_config):
        from repro.engine.core import WorkUnit
        from repro.perfmodel.model import profile_key

        return WorkUnit(kind="simulation",
                        profile_fields=profile_key("gcc"),
                        cache_grid=(128.0,), slice_grid=(1, 4),
                        trace_length=4000, trace_seed=1,
                        sim_config=sim_config)

    def test_backend_perturbation_changes_cache_key(self):
        from repro.core.config import SimConfig

        python_key = self._unit(SimConfig()).cache_key()
        batched_key = self._unit(SimConfig(backend="batched")).cache_key()
        assert python_key != batched_key

    def test_default_config_aliases_none(self):
        """``sim_config=None`` means the default SimConfig; both spell
        the same evaluation, so they must share one cache entry."""
        from repro.core.config import SimConfig

        assert (self._unit(None).cache_key()
                == self._unit(SimConfig()).cache_key())

    def test_fingerprint_differs_only_in_backend_field(self):
        from repro.core.config import SimConfig

        base = dict(SimConfig().fingerprint())
        batched = dict(SimConfig(backend="batched").fingerprint())
        changed = {k for k in base if base[k] != batched.get(k)}
        assert changed == {"backend"}
