"""The affinity scheduler: dual-path equivalence, workload affinity,
batch ordering.

The scheduler's contract mirrors the store's: turning it on (affinity
batches, the store tier) changes *when and where* units run, never
*what* they produce - values, cache keys, and cache entry sets are
bit-identical to the serial store-off path.
"""

import multiprocessing

import pytest

from repro.engine import ResultCache, SweepEngine, SweepSpec
from repro.engine.core import _affinity_key, _make_batches
from repro.trace import materialize

IS_FORK = multiprocessing.get_start_method() == "fork"

pytestmark = pytest.mark.skipif(
    not IS_FORK, reason="scheduler tests monkeypatch via fork")


class _Utility:
    def __init__(self, name, perf_exponent=1.0):
        self.name = name
        self.perf_exponent = perf_exponent


class _Market:
    def __init__(self, name):
        self.name = name
        self.slice_price = 1.0
        self.bank_price = 0.004
        self.fixed_cost = 2.0


def _utility_spec():
    return SweepSpec(
        benchmarks=("gcc", "bzip"),
        cache_grid=(0.0, 128.0, 512.0),
        slice_grid=(1, 2, 4, 8),
        utilities=(_Utility("U1"), _Utility("U2", 0.5)),
        markets=(_Market("M"),),
        budget=24.0,
    )


def _entry_keys(cache):
    return {path.stem for path in cache.root.glob("v*/??/*.json")}


@pytest.fixture(autouse=True)
def _clean_lru():
    materialize.clear()
    yield
    materialize.set_store(None)


class TestEquivalence:
    def test_scheduler_and_store_match_serial(self, tmp_path):
        """jobs=2 + store + affinity scheduling == serial store-off:
        same values AND the same set of cache entries on disk."""
        spec = SweepSpec(benchmarks=("gcc", "bzip", "mcf", "astar"),
                         cache_grid=(0.0, 64.0, 256.0),
                         slice_grid=(1, 2, 4))
        serial_cache = ResultCache(root=tmp_path / "serial")
        serial = SweepEngine(jobs=1, cache=serial_cache).run(spec)

        fan_cache = ResultCache(root=tmp_path / "fanned")
        fanned = SweepEngine(jobs=2, cache=fan_cache,
                             parallel_threshold=1,
                             store=tmp_path / "workloads").run(spec)

        assert fanned.parallel and not serial.parallel
        assert fanned.values == serial.values
        assert _entry_keys(fan_cache) == _entry_keys(serial_cache)
        assert len(_entry_keys(serial_cache)) == 4

    def test_simulation_sweep_bit_identical_with_store(self, tmp_path):
        spec = SweepSpec(benchmarks=("gcc", "bzip"), simulate=True,
                         cache_grid=(64.0, 256.0), slice_grid=(1, 2),
                         trace_length=800)
        off = SweepEngine(jobs=1,
                          cache=ResultCache(root=tmp_path / "off")
                          ).run(spec)
        materialize.clear()
        on = SweepEngine(jobs=2, parallel_threshold=1,
                         cache=ResultCache(root=tmp_path / "on"),
                         store=tmp_path / "workloads").run(spec)
        assert on.values == off.values

    def test_store_stats_surface_in_result(self, tmp_path):
        spec = SweepSpec(benchmarks=("gcc",), simulate=True,
                         cache_grid=(64.0,), slice_grid=(1, 2),
                         trace_length=600)
        sweep = SweepEngine(jobs=1,
                            cache=ResultCache(root=tmp_path / "c"),
                            store=tmp_path / "w").run(spec)
        assert sweep.store_stats["generations"] == 1
        # Second grid point of the unit rides the worker's LRU.
        assert sweep.store_stats["lru_hits"] >= 1
        assert set(sweep.sched_stats) == {"batches", "pool_retries"}


class TestAffinity:
    def test_units_sharing_a_workload_share_a_batch(self):
        spec = _utility_spec()
        units = spec.expand()
        keys = {_affinity_key(u) for u in units}
        # 4 units (2 benchmarks x 2 utilities), 2 affinity groups.
        assert len(units) == 4 and len(keys) == 2

    def test_simulation_affinity_ignores_grid(self):
        a = SweepSpec(benchmarks=("gcc",), simulate=True,
                      cache_grid=(64.0,), slice_grid=(1,),
                      trace_length=500).expand()[0]
        b = SweepSpec(benchmarks=("gcc",), simulate=True,
                      cache_grid=(256.0,), slice_grid=(4,),
                      trace_length=500).expand()[0]
        assert _affinity_key(a) == _affinity_key(b)
        c = SweepSpec(benchmarks=("gcc",), simulate=True,
                      cache_grid=(64.0,), slice_grid=(1,),
                      trace_length=600).expand()[0]
        assert _affinity_key(a) != _affinity_key(c)

    def test_same_benchmark_units_land_on_one_worker(self, tmp_path):
        sweep = SweepEngine(
            jobs=2, parallel_threshold=1,
            cache=ResultCache(root=tmp_path / "c"),
        ).run(_utility_spec())
        pids = {}
        for stat in sweep.unit_stats:
            pids.setdefault(stat.benchmark, set()).add(stat.worker_pid)
        # Both utility units of one benchmark evaluated in one process.
        assert all(len(p) == 1 for p in pids.values())
        assert sweep.sched_stats["batches"] == 2

    def test_batches_split_when_workers_idle(self, tmp_path):
        # One benchmark, 4 workers: the single affinity group must be
        # split rather than serializing the sweep on one worker.
        engine = SweepEngine(jobs=4, parallel_threshold=1,
                             cache=ResultCache(root=tmp_path / "c"))
        spec = SweepSpec(
            benchmarks=("gcc",),
            cache_grid=(0.0, 128.0),
            slice_grid=(1, 2),
            utilities=(_Utility("U1"), _Utility("U2", 0.5),
                       _Utility("U3", 2.0), _Utility("U4", 0.25)),
            markets=(_Market("M"),),
            budget=24.0,
        )
        sweep = engine.run(spec)
        assert sweep.sched_stats["batches"] == 4
        assert sweep.units == 4


class TestCostOrdering:
    def test_heaviest_batch_first(self):
        # A sweep's units share one kind, so a batch's point count is
        # its cost: the longest batch must be submitted first, whatever
        # the expansion order.
        light = SweepSpec(benchmarks=("gcc",), cache_grid=(0.0,),
                          slice_grid=(1,)).expand()
        heavy = SweepSpec(benchmarks=("bzip",),
                          cache_grid=(0.0, 64.0, 256.0),
                          slice_grid=(1, 2)).expand()
        middle = SweepSpec(benchmarks=("mcf",), cache_grid=(0.0, 64.0),
                           slice_grid=(1, 2)).expand()
        batches = _make_batches(light + middle + heavy, workers=2)
        assert [[u.benchmark for u in b] for b in batches] == [
            ["bzip"], ["mcf"], ["gcc"]]
        assert [sum(u.points for u in b) for b in batches] == [6, 4, 1]
