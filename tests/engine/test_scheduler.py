"""The affinity scheduler: pooled-vs-serial equivalence, workload
affinity, batch ordering.

Fanning a sweep across a pool in affinity batches changes *when and
where* units run, never *what* they produce - values, cache keys, and
cache entry sets are bit-identical to the serial path.
"""

import multiprocessing

import pytest

from repro.engine import ResultCache, SweepEngine, SweepSpec
from repro.engine.core import _affinity_key, _make_batches
from repro.trace import materialize

IS_FORK = multiprocessing.get_start_method() == "fork"

pytestmark = pytest.mark.skipif(
    not IS_FORK, reason="scheduler tests monkeypatch via fork")


#: Tiny simulation units: ~15-35 ms per grid point.
TINY = dict(cache_grid=(128.0,), slice_grid=(1, 2), trace_length=200)


def _shared_workload_units():
    """Four units over two workloads: each of gcc's and bzip's traces
    at two cache sizes.  A spec yields one unit per benchmark, so units
    sharing a workload come from separate specs."""
    return [unit
            for cache_kb in (64.0, 256.0)
            for unit in SweepSpec(benchmarks=("gcc", "bzip"),
                                  cache_grid=(cache_kb,),
                                  slice_grid=(1, 2),
                                  trace_length=200).expand()]


def _entry_keys(cache):
    return {path.stem for path in cache.root.glob("v*/??/*.json")}


@pytest.fixture(autouse=True)
def _clean_lru():
    materialize.clear()


class TestEquivalence:
    def test_scheduler_matches_serial(self, tmp_path):
        """jobs=2 + affinity scheduling == serial: same values AND the
        same set of cache entries on disk."""
        spec = SweepSpec(benchmarks=("gcc", "bzip", "astar", "hmmer"),
                         **TINY)
        serial_cache = ResultCache(root=tmp_path / "serial")
        serial = SweepEngine(jobs=1, cache=serial_cache).run(spec)

        fan_cache = ResultCache(root=tmp_path / "fanned")
        fanned = SweepEngine(jobs=2, cache=fan_cache,
                             parallel_threshold=1).run(spec)

        assert fanned.parallel and not serial.parallel
        assert fanned.values == serial.values
        assert _entry_keys(fan_cache) == _entry_keys(serial_cache)
        assert len(_entry_keys(serial_cache)) == 4

    def test_pooled_simulation_sweep_bit_identical(self, tmp_path):
        spec = SweepSpec(benchmarks=("gcc", "bzip"),
                         cache_grid=(64.0, 256.0), slice_grid=(1, 2),
                         trace_length=800)
        serial = SweepEngine(jobs=1,
                             cache=ResultCache(root=tmp_path / "serial")
                             ).run(spec)
        materialize.clear()
        pooled = SweepEngine(jobs=2, parallel_threshold=1,
                             cache=ResultCache(root=tmp_path / "pooled")
                             ).run(spec)
        assert pooled.parallel and not serial.parallel
        assert pooled.values == serial.values

    def test_workload_stats_surface_in_result(self, tmp_path):
        spec = SweepSpec(benchmarks=("gcc",),
                         cache_grid=(64.0,), slice_grid=(1, 2),
                         trace_length=600)
        sweep = SweepEngine(jobs=1,
                            cache=ResultCache(root=tmp_path / "c")
                            ).run(spec)
        assert set(sweep.workload_stats) == {
            "lru_hits", "lru_misses", "generations", "generation_s"}
        assert sweep.workload_stats["generations"] == 1
        # Second grid point of the unit rides the worker's LRU.
        assert sweep.workload_stats["lru_hits"] >= 1
        assert set(sweep.sched_stats) == {"batches", "pool_retries"}


class TestAffinity:
    def test_units_sharing_a_workload_share_a_batch(self):
        units = _shared_workload_units()
        keys = {_affinity_key(u) for u in units}
        # 4 units (2 benchmarks x 2 cache sizes), 2 affinity groups.
        assert len(units) == 4 and len(keys) == 2
        batches = _make_batches(units, workers=2)
        assert sorted([u.benchmark for u in b] for b in batches) == [
            ["bzip", "bzip"], ["gcc", "gcc"]]

    def test_simulation_affinity_ignores_grid(self):
        a = SweepSpec(benchmarks=("gcc",),
                      cache_grid=(64.0,), slice_grid=(1,),
                      trace_length=500).expand()[0]
        b = SweepSpec(benchmarks=("gcc",),
                      cache_grid=(256.0,), slice_grid=(4,),
                      trace_length=500).expand()[0]
        assert _affinity_key(a) == _affinity_key(b)
        c = SweepSpec(benchmarks=("gcc",),
                      cache_grid=(64.0,), slice_grid=(1,),
                      trace_length=600).expand()[0]
        assert _affinity_key(a) != _affinity_key(c)

    def test_same_benchmark_units_land_on_one_worker(self, tmp_path):
        # Within one sweep only a repeated benchmark shares a workload.
        sweep = SweepEngine(
            jobs=2, parallel_threshold=1,
            cache=ResultCache(root=tmp_path / "c"),
        ).run(SweepSpec(benchmarks=("gcc", "gcc", "bzip", "bzip"),
                        **TINY))
        pids = {}
        for stat in sweep.unit_stats:
            pids.setdefault(stat.benchmark, set()).add(stat.worker_pid)
        # Both units of one benchmark evaluated in one process.
        assert len(sweep.unit_stats) == 4
        assert all(len(p) == 1 for p in pids.values())
        assert sweep.sched_stats["batches"] == 2

    def test_batches_split_when_workers_idle(self, tmp_path):
        # One benchmark, 4 workers: the single affinity group must be
        # split rather than serializing the sweep on one worker.
        engine = SweepEngine(jobs=4, parallel_threshold=1,
                             cache=ResultCache(root=tmp_path / "c"))
        spec = SweepSpec(benchmarks=("astar",) * 4, cache_grid=(128.0,),
                         slice_grid=(1,), trace_length=200)
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
