"""Tests for the content-addressed on-disk result cache."""

import json
import re
import subprocess
import sys
import threading
import time

import pytest

from repro.engine import core as engine_core
from repro.engine.cache import CACHE_VERSION, ResultCache, canonical_key
from repro.engine.core import SweepEngine, SweepSpec

#: The only files a cache root may hold: ``v<N>/<kk>/<key>.json``.
ENTRY_PATH = re.compile(
    rf"v{CACHE_VERSION}/([0-9a-f]{{2}})/\1[0-9a-f]{{62}}\.json")

#: Tiny simulation units: ~15-35 ms per grid point.
TINY = dict(cache_grid=(64.0, 128.0), slice_grid=(1, 2), trace_length=200)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(root=tmp_path / "cache")


class TestKeying:
    def test_key_is_deterministic(self):
        payload = {"kind": "simulation", "grid": [0.0, 64.0]}
        assert canonical_key(payload) == canonical_key(dict(payload))

    def test_key_order_independent(self):
        assert canonical_key({"a": 1, "b": 2}) == canonical_key(
            {"b": 2, "a": 1}
        )

    def test_key_depends_on_every_field(self):
        base = {"kind": "simulation", "trace_length": 200}
        assert canonical_key(base) != canonical_key(
            {**base, "trace_length": 201}
        )

    def test_key_folds_cache_version(self):
        # The version is mixed into the digest, so bumping it orphans
        # every old entry rather than serving stale layouts.
        encoded = json.dumps(
            {"cache_version": CACHE_VERSION, "x": 1},
            sort_keys=True, separators=(",", ":"), default=str,
        )
        assert canonical_key({"x": 1}) != canonical_key({"x": 2})
        assert len(canonical_key({"x": 1})) == 64
        assert encoded  # the canonical form exists and is compact

    def test_key_stable_across_processes(self):
        """PYTHONHASHSEED must not leak into keys (cross-run cache)."""
        import os
        import repro

        payload = {"kind": "simulation", "profile": [["name", "gcc"]]}
        script = (
            "from repro.engine.cache import canonical_key; "
            f"print(canonical_key({payload!r}))"
        )
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        outs = {
            subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": src_dir,
                     "PYTHONHASHSEED": seed},
            ).stdout.strip()
            for seed in ("0", "12345")
        }
        assert outs == {canonical_key(payload)}


class TestStore:
    def test_miss_then_hit(self, cache):
        key = canonical_key({"x": 1})
        assert cache.get(key) is None
        cache.put(key, [[0.0, 1, 0.5]])
        assert cache.get(key) == [[0.0, 1, 0.5]]
        assert cache.counters() == {"hits": 1, "misses": 1, "puts": 1,
                                    "corrupt": 0}

    def test_float_roundtrip_exact(self, cache):
        value = [[8192.0, 7, 0.12345678901234567]]
        key = canonical_key({"y": 2})
        cache.put(key, value)
        assert cache.get(key) == value

    def test_corrupt_entry_is_a_miss(self, cache):
        key = canonical_key({"z": 3})
        cache.put(key, [1, 2, 3])
        path = cache._path_for(key)
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None
        assert cache.counters()["corrupt"] == 1

    def test_corrupt_entry_is_unlinked_and_repairable(self, cache):
        """A poison entry is quarantined (unlinked) on first read, so a
        recompute's put() repairs the cache instead of tripping on it."""
        key = canonical_key({"z": 4})
        cache.put(key, [[0.0, 1, 0.5]])
        path = cache._path_for(key)
        path.write_text('{"key": "x"}', encoding="utf-8")  # no "value"
        assert cache.get(key) is None
        assert not path.exists()
        cache.put(key, [[0.0, 1, 0.7]])
        assert cache.get(key) == [[0.0, 1, 0.7]]
        counters = cache.counters()
        assert counters["corrupt"] == 1
        assert counters["hits"] == 1

    def test_missing_entry_behind_index_is_not_corrupt(self, cache):
        """An entry unlinked after its put (a concurrent clear or
        quarantine) is a plain miss, not corruption."""
        key = canonical_key({"z": 5})
        cache.put(key, [1])
        cache._path_for(key).unlink()
        assert cache.get(key) is None
        assert cache.counters()["corrupt"] == 0

    def test_disabled_cache_never_stores(self, tmp_path):
        cache = ResultCache(root=tmp_path / "c", enabled=False)
        key = canonical_key({"k": 1})
        cache.put(key, [1])
        assert cache.get(key) is None
        assert not (tmp_path / "c").exists()

    def test_clear_removes_entries(self, cache):
        for i in range(3):
            cache.put(canonical_key({"i": i}), [i])
        assert cache.clear() == 3
        assert cache.get(canonical_key({"i": 0})) is None

    def test_env_var_sets_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env_cache"))
        cache = ResultCache()
        assert cache.root == tmp_path / "env_cache"


class TestInvalidation:
    def test_warm_engine_serves_hits(self, tmp_path):
        spec = SweepSpec(benchmarks=("astar", "hmmer"), **TINY)
        cache_root = tmp_path / "cache"
        cold = SweepEngine(jobs=1, cache=ResultCache(root=cache_root))
        first = cold.run(spec)
        assert first.cache_hits == 0 and first.cache_misses == 2

        warm = SweepEngine(jobs=1, cache=ResultCache(root=cache_root))
        second = warm.run(spec)
        assert second.cache_hits == 2 and second.cache_misses == 0
        assert second.values == first.values


class TestOnDiskLayout:
    def test_sweep_leaves_only_entry_files(self, tmp_path):
        root = tmp_path / "cache"
        spec = SweepSpec(benchmarks=("astar", "hmmer"), **TINY)
        SweepEngine(jobs=1, cache=ResultCache(root=root)).run(spec)
        assert [p.name for p in root.iterdir()] == [f"v{CACHE_VERSION}"]
        files = sorted(p.relative_to(root).as_posix()
                       for p in root.rglob("*") if p.is_file())
        assert len(files) == 2
        assert all(ENTRY_PATH.fullmatch(f) for f in files), files


class TestConcurrentSweeps:
    def test_two_engines_share_one_cache_dir(self, tmp_path, monkeypatch):
        """Two engines, one cache dir, overlapping sweeps: both get the
        full, identical result set, and every entry either one wrote
        stays parseable."""
        real = engine_core.evaluate_unit

        def slow(unit):
            time.sleep(0.15)  # hold the overlap window open
            return real(unit)

        monkeypatch.setattr(engine_core, "evaluate_unit", slow)
        spec = SweepSpec(benchmarks=("astar", "hmmer", "bzip"),
                         cache_grid=(128.0,), slice_grid=(1, 2),
                         trace_length=200)
        cache_root = tmp_path / "cache"
        sweeps = {}

        def run(name):
            engine = SweepEngine(jobs=1,
                                 cache=ResultCache(root=cache_root))
            sweeps[name] = engine.run(spec)

        first = threading.Thread(target=run, args=("a",))
        first.start()
        time.sleep(0.05)  # let A start evaluating before B expands
        run("b")
        first.join(timeout=60)
        assert not first.is_alive()

        assert sweeps["a"].values == sweeps["b"].values
        reader = ResultCache(root=cache_root)
        for unit in spec.expand():
            path = reader._path_for(unit.cache_key())
            entry = json.loads(path.read_text(encoding="utf-8"))
            assert entry["key"] == unit.cache_key()
            assert reader.get(unit.cache_key()) == entry["value"]
        assert reader.counters()["corrupt"] == 0


#: Entry values that parse but are not a two-point simulation unit's
#: rows, built from the unit's real rows.
MALFORMED = {
    "scalar": lambda rows: 5,
    "short_row": lambda rows: [[0.0, 1]],
    "missing_row": lambda rows: rows[:1],
}


class TestMalformedEntries:
    @pytest.mark.parametrize("bad", sorted(MALFORMED))
    def test_wrong_shape_is_corrupt_and_recomputed(self, tmp_path, bad):
        """An entry that parses but does not hold its unit's rows is
        counted corrupt, unlinked and recomputed, never served."""
        root = tmp_path / "cache"
        grid = dict(cache_grid=(128.0,), slice_grid=(1, 2),
                    trace_length=200)
        cold = SweepEngine(jobs=1, cache=ResultCache(root=root)
                           ).simulation_map(["astar"], **grid)
        (path,) = root.rglob("*.json")
        rows = json.loads(path.read_text(encoding="utf-8"))["value"]
        assert len(rows) == 2
        path.write_text(json.dumps({"value": MALFORMED[bad](rows)}),
                        encoding="utf-8")

        engine = SweepEngine(jobs=1, cache=ResultCache(root=root))
        sweep = engine.simulation_map(["astar"], **grid)
        assert sweep.values == cold.values
        assert (sweep.cache_hits, sweep.cache_misses) == (0, 1)
        assert engine.cache.counters() == {"hits": 0, "misses": 1,
                                           "puts": 1, "corrupt": 1}
        warm = SweepEngine(jobs=1, cache=ResultCache(root=root)
                           ).simulation_map(["astar"], **grid)
        assert warm.cache_hits == 1
        assert warm.values == cold.values
