"""The scheduler: pooled-vs-serial equivalence and when a sweep fans
out.

Fanning a sweep across a pool, one future per unit, changes *when and
where* units run, never *what* they produce - values, cache keys, and
cache entry sets are bit-identical to the serial path.
"""

import multiprocessing

import pytest

from repro.engine import ResultCache, SweepEngine, SweepSpec
from repro.trace import materialize

IS_FORK = multiprocessing.get_start_method() == "fork"

pytestmark = pytest.mark.skipif(
    not IS_FORK, reason="scheduler tests monkeypatch via fork")


#: Tiny simulation units: ~15-35 ms per grid point.
TINY = dict(cache_grid=(128.0,), slice_grid=(1, 2), trace_length=200)


def _entry_keys(cache):
    return {path.stem for path in cache.root.glob("v*/??/*.json")}


@pytest.fixture(autouse=True)
def _clean_lru():
    materialize.clear()


class TestEquivalence:
    def test_scheduler_matches_serial(self, tmp_path):
        """jobs=2 pooled == serial: same values AND the same set of
        cache entries on disk."""
        spec = SweepSpec(benchmarks=("gcc", "bzip", "astar", "hmmer"),
                         **TINY)
        serial_cache = ResultCache(root=tmp_path / "serial")
        serial = SweepEngine(jobs=1, cache=serial_cache).run(spec)

        fan_cache = ResultCache(root=tmp_path / "fanned")
        fanned = SweepEngine(jobs=2, cache=fan_cache).run(spec)

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
        pooled = SweepEngine(jobs=2,
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
        assert sweep.sched_stats == {"pool_retries": 0}


class TestFanOut:
    """A sweep fans out whenever it has two pending units and two
    workers; otherwise it stays in-process."""

    @pytest.mark.parametrize("jobs,benches", [
        (2, ("gcc", "bzip")),
        (2, ("gcc", "bzip", "astar")),
        (4, ("gcc", "bzip", "astar")),
    ])
    def test_two_units_and_two_workers_fan_out(self, tmp_path, jobs,
                                               benches):
        sweep = SweepEngine(jobs=jobs,
                            cache=ResultCache(root=tmp_path / "c")
                            ).run(SweepSpec(benchmarks=benches, **TINY))
        assert sweep.parallel
        assert sweep.workers == min(jobs, len(benches))
        pids = {stat.worker_pid for stat in sweep.unit_stats}
        assert 0 not in pids and len(pids) <= sweep.workers

    def test_one_pending_unit_stays_in_process(self, tmp_path):
        cache = ResultCache(root=tmp_path / "c")
        SweepEngine(jobs=1, cache=cache).run(
            SweepSpec(benchmarks=("gcc",), **TINY))
        sweep = SweepEngine(jobs=2, cache=cache).run(
            SweepSpec(benchmarks=("gcc", "bzip"), **TINY))
        assert sweep.cache_hits == 1
        assert not sweep.parallel and sweep.workers == 1
