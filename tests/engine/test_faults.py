"""Fault paths of the sweep engine: failing units, hung workers,
corrupted cache entries.

A failing work unit must surface as a one-line :class:`WorkUnitError`
(worker traceback on an attribute, not in ``str()``), must never write
to the on-disk result cache, and a hung worker must trip ``timeout_s``
rather than wedging the sweep.  The hang/failure tests monkeypatch
``repro.engine.core.evaluate_unit`` in the parent; the ``fork`` start
method propagates the patch into pool workers.
"""

import multiprocessing
import os
import time

import pytest

from repro.engine import (
    ResultCache,
    SweepEngine,
    SweepSpec,
    SweepTimeoutError,
    WorkUnitError,
)
from repro.engine import core as engine_core
from repro.engine.cache import CACHE_VERSION

IS_FORK = multiprocessing.get_start_method() == "fork"

BENCHES = ("gcc", "bzip")
#: Tiny simulation units: ~30 ms per grid point for gcc or bzip.
GRID = dict(cache_grid=(128.0,), slice_grid=(1, 2), trace_length=200)


def _engine(tmp_path, **kwargs):
    return SweepEngine(cache=ResultCache(root=tmp_path / "cache"),
                       **kwargs)


def _spec(*benches):
    return SweepSpec(benchmarks=benches or BENCHES, **GRID)


def _boom(unit):
    raise ValueError(f"synthetic failure for {unit.benchmark}")


def _hang(unit):
    time.sleep(60)


class TestFailingUnit:
    def test_serial_failure_raises_clear_error(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setattr(engine_core, "evaluate_unit", _boom)
        engine = _engine(tmp_path, jobs=1)
        with pytest.raises(WorkUnitError) as excinfo:
            engine.run(_spec("gcc"))
        message = str(excinfo.value)
        assert "gcc" in message
        assert "ValueError" in message
        assert "synthetic failure" in message
        # one line, traceback relegated to the attribute
        assert "\n" not in message
        assert "Traceback" not in message
        assert "Traceback" in excinfo.value.worker_traceback
        assert excinfo.value.unit.benchmark == "gcc"

    def test_failure_does_not_poison_cache(self, tmp_path, monkeypatch):
        engine = _engine(tmp_path, jobs=1)
        spec = _spec("gcc")
        key = spec.expand()[0].cache_key()

        monkeypatch.setattr(engine_core, "evaluate_unit", _boom)
        with pytest.raises(WorkUnitError):
            engine.run(spec)
        assert engine.cache.get(key) is None

        # undo the fault: the unit re-evaluates cleanly and caches
        monkeypatch.undo()
        sweep = engine.run(spec)
        assert sweep.cache_hits == 0
        assert engine.cache.get(key) is not None
        assert engine.run(spec).cache_hits == 1

    def test_successful_units_cached_despite_sibling_failure(
            self, tmp_path, monkeypatch):
        real = engine_core.evaluate_unit

        def selective(unit):
            if unit.benchmark == "bzip":
                raise RuntimeError("bzip only")
            return real(unit)

        monkeypatch.setattr(engine_core, "evaluate_unit", selective)
        engine = _engine(tmp_path, jobs=1)
        spec = _spec("gcc", "bzip")
        keys = {u.benchmark: u.cache_key() for u in spec.expand()}
        with pytest.raises(WorkUnitError, match="bzip"):
            engine.run(spec)
        assert engine.cache.get(keys["gcc"]) is not None
        assert engine.cache.get(keys["bzip"]) is None

    @pytest.mark.skipif(not IS_FORK,
                        reason="monkeypatch propagation needs fork")
    def test_parallel_failure_raises_clear_error(self, tmp_path,
                                                 monkeypatch):
        monkeypatch.setattr(engine_core, "evaluate_unit", _boom)
        engine = _engine(tmp_path, jobs=2)
        with pytest.raises(WorkUnitError) as excinfo:
            engine.run(_spec())
        assert "ValueError" in str(excinfo.value)
        assert excinfo.value.worker_pid > 0
        assert "Traceback" in excinfo.value.worker_traceback


class TestHungWorker:
    @pytest.mark.skipif(not IS_FORK,
                        reason="monkeypatch propagation needs fork")
    def test_timeout_raises_and_names_pending_units(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setattr(engine_core, "evaluate_unit", _hang)
        engine = _engine(tmp_path, jobs=2, timeout_s=1.0)
        start = time.perf_counter()
        with pytest.raises(SweepTimeoutError) as excinfo:
            engine.run(_spec())
        elapsed = time.perf_counter() - start
        assert elapsed < 30  # did not wait for the 60s sleep
        assert excinfo.value.pending_units
        assert "timed out" in str(excinfo.value)

    def test_infinite_timeout_never_fires(self, tmp_path):
        # The pool loop's blocking wait must clamp an unbounded deadline
        # rather than overflow the lock timeout.
        engine = _engine(tmp_path, jobs=2, timeout_s=float("inf"))
        sweep = engine.run(_spec())
        assert sweep.parallel and sweep.units == 2

    def test_serial_sweep_stops_at_deadline(self, tmp_path, monkeypatch):
        # In-process sweeps check the deadline before each unit: the
        # first unit outlives it, so the second is never started.
        real = engine_core.evaluate_unit

        def slow(unit):
            time.sleep(0.3)
            return real(unit)

        monkeypatch.setattr(engine_core, "evaluate_unit", slow)
        engine = _engine(tmp_path, jobs=1, timeout_s=0.1)
        spec = _spec("gcc", "bzip")
        keys = {u.benchmark: u.cache_key() for u in spec.expand()}
        with pytest.raises(SweepTimeoutError) as excinfo:
            engine.run(spec)
        assert [u.benchmark for u in excinfo.value.pending_units] == ["bzip"]
        assert "1 of 2 units outstanding (bzip)" in str(excinfo.value)
        assert engine.cache.get(keys["gcc"]) is not None
        assert engine.cache.get(keys["bzip"]) is None


class TestWorkerDeath:
    """A worker process dying (``os._exit``, OOM-kill analog) must be
    retried on a fresh pool; only persistent deaths surface, and every
    unit completed before the death is cached first."""

    @staticmethod
    def _die_on_bzip(sentinel, once):
        """Worker hook: die hard on the bzip unit (optionally only the
        first time); the sleep lets the sibling gcc unit finish and be
        yielded before the pool breaks, keeping outcome order
        deterministic."""
        real = engine_core.evaluate_unit

        def hook(unit):
            if unit.benchmark == "bzip":
                time.sleep(0.5)
                if once:
                    try:
                        sentinel.touch(exist_ok=False)
                    except FileExistsError:
                        return real(unit)
                os._exit(1)
            return real(unit)

        return hook

    @pytest.mark.skipif(not IS_FORK,
                        reason="monkeypatch propagation needs fork")
    def test_transient_death_recovers_on_retry(self, tmp_path,
                                               monkeypatch):
        sentinel = tmp_path / "died_once"
        monkeypatch.setattr(engine_core, "evaluate_unit",
                            self._die_on_bzip(sentinel, once=True))
        engine = _engine(tmp_path, jobs=2)
        spec = _spec()
        sweep = engine.run(spec)
        assert sentinel.exists()  # the crash really happened
        assert sweep.units == 2 and sweep.cache_misses == 2
        for unit in spec.expand():
            assert engine.cache.get(unit.cache_key()) is not None

    @pytest.mark.skipif(not IS_FORK,
                        reason="monkeypatch propagation needs fork")
    def test_persistent_death_exhausts_retries(self, tmp_path,
                                               monkeypatch):
        sentinel = tmp_path / "unused"
        monkeypatch.setattr(engine_core, "evaluate_unit",
                            self._die_on_bzip(sentinel, once=False))
        engine = _engine(tmp_path, jobs=2, pool_retries=1)
        spec = _spec()
        keys = {u.benchmark: u.cache_key() for u in spec.expand()}
        with pytest.raises(WorkUnitError) as excinfo:
            engine.run(spec)
        assert "BrokenProcessPool" in str(excinfo.value)
        assert "bzip" in str(excinfo.value)
        # The completed sibling was cached before the error surfaced.
        assert engine.cache.get(keys["gcc"]) is not None
        assert engine.cache.get(keys["bzip"]) is None
        # A healthy re-run only redoes the lost unit.
        monkeypatch.undo()
        sweep = engine.run(spec)
        assert sweep.cache_hits == 1 and sweep.cache_misses == 1

    def test_pool_retries_validation(self, tmp_path):
        with pytest.raises(ValueError):
            _engine(tmp_path, pool_retries=-1)

    @pytest.mark.parametrize("timeout_s", [0, -1.0, float("nan")])
    def test_timeout_validation(self, tmp_path, timeout_s):
        with pytest.raises(ValueError, match="timeout_s must be > 0"):
            _engine(tmp_path, timeout_s=timeout_s)

    @pytest.mark.parametrize("backend", ["python", "fortran"])
    def test_backend_validation(self, tmp_path, backend):
        """No unit reads an economics backend; ``backend`` takes only
        None or "numpy"."""
        assert _engine(tmp_path, backend="numpy") is not None
        with pytest.raises(ValueError, match="economics backend") as info:
            _engine(tmp_path, backend=backend)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("store", [True, "workloads"])
    def test_store_validation(self, tmp_path, store):
        """Workloads come from the process LRU or the generator;
        ``store`` takes only None."""
        assert _engine(tmp_path, store=None) is not None
        if store == "workloads":
            store = tmp_path / store
        with pytest.raises(ValueError, match="workload store") as info:
            _engine(tmp_path, store=store)
        assert "\n" not in str(info.value)


class TestCorruptedCache:
    def test_corrupt_entry_detected_and_recomputed(self, tmp_path):
        engine = _engine(tmp_path, jobs=1)
        spec = _spec("gcc")
        first = engine.run(spec)
        unit = spec.expand()[0]
        path = engine.cache._path_for(unit.cache_key())
        assert path.exists()
        path.write_text("{ this is not json")

        again = _engine(tmp_path, jobs=1)
        sweep = again.run(spec)
        assert sweep.cache_hits == 0
        assert sweep.cache_misses == 1
        assert sweep.grid("gcc") == first.grid("gcc")
        # the recompute repaired the entry
        warm = _engine(tmp_path, jobs=1).run(spec)
        assert warm.cache_hits == 1

    def test_truncated_entry_treated_as_miss(self, tmp_path):
        engine = _engine(tmp_path, jobs=1)
        spec = _spec("gcc")
        engine.run(spec)
        path = engine.cache._path_for(spec.expand()[0].cache_key())
        path.write_text("")
        sweep = _engine(tmp_path, jobs=1).run(spec)
        assert sweep.cache_misses == 1


class TestUnitTelemetry:
    def test_unit_stats_cover_all_units(self, tmp_path):
        engine = _engine(tmp_path, jobs=1)
        sweep = engine.run(_spec())
        assert len(sweep.unit_stats) == sweep.units
        assert all(not s.cached and s.eval_s >= 0
                   for s in sweep.unit_stats)
        warm = engine.run(_spec())
        assert all(s.cached for s in warm.unit_stats)
        assert all(s.eval_s == 0.0 for s in warm.unit_stats)


class TestDeathAndSharedState:
    """Worker death crossed with the shared cache directory and store
    claims: everything published before a crash stays visible to every
    other reader, and nothing a dead process held can wedge a
    successor."""

    @pytest.mark.skipif(not IS_FORK,
                        reason="monkeypatch propagation needs fork")
    def test_completed_prefix_in_index_after_death(self, tmp_path,
                                                   monkeypatch):
        sentinel = tmp_path / "unused"
        monkeypatch.setattr(
            engine_core, "evaluate_unit",
            TestWorkerDeath._die_on_bzip(sentinel, once=False))
        engine = _engine(tmp_path, jobs=2, pool_retries=0)
        spec = _spec()
        keys = {u.benchmark: u.cache_key() for u in spec.expand()}
        with pytest.raises(WorkUnitError):
            engine.run(spec)

        # A brand-new cache instance resolves the completed prefix from
        # the entry files the dead sweep published.
        fresh = ResultCache(root=tmp_path / "cache")
        assert fresh.get(keys["gcc"]) is not None
        assert fresh.get(keys["bzip"]) is None
        counters = fresh.counters()
        assert counters["hits"] == 1 and counters["misses"] == 1
        assert counters["corrupt"] == 0

    @pytest.mark.skipif(not IS_FORK,
                        reason="monkeypatch propagation needs fork")
    def test_no_claims_left_after_death(self, tmp_path, monkeypatch):
        sentinel = tmp_path / "unused"
        monkeypatch.setattr(
            engine_core, "evaluate_unit",
            TestWorkerDeath._die_on_bzip(sentinel, once=False))
        engine = _engine(tmp_path, jobs=2, pool_retries=0)
        spec = _spec()
        with pytest.raises(WorkUnitError):
            engine.run(spec)
        # The cache root holds entries only - no lock a dead sweep
        # could leave behind - so a healthy successor runs straight on.
        root = tmp_path / "cache"
        assert [p.name for p in root.iterdir()] == [f"v{CACHE_VERSION}"]
        monkeypatch.undo()
        sweep = _engine(tmp_path, jobs=1).run(spec)
        assert sweep.cache_hits == 1 and sweep.cache_misses == 1
