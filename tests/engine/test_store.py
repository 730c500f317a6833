"""The mmap workload store: roundtrip fidelity, content addressing,
corruption quarantine, claim coordination, and the get_workload tier.

The store's contract is *bit-identity*: a loaded workload must compare
equal element-by-element to the generated one - same instructions, same
warmup stream, same simulation results - while sharing its columns with
the mapped file instead of copying them.
"""

import os
import time

import pytest

from repro.core.simulator import simulate
from repro.engine.claims import ClaimBox
from repro.engine.store import (
    STORE_VERSION,
    WorkloadStore,
    reset_store_counters,
    store_counters,
    store_key,
)
from repro.trace import materialize
from repro.trace.generator import make_workload
from repro.trace.materialize import get_workload, workload_key

BENCH = "gcc"
LENGTH = 1500
SEED = 3
MULT = 4.0


@pytest.fixture(autouse=True)
def _clean_counters():
    reset_store_counters()
    materialize.clear()
    yield
    materialize.set_store(None)


@pytest.fixture
def store(tmp_path):
    return WorkloadStore(tmp_path / "workloads")


def _fields():
    return workload_key(BENCH, LENGTH, SEED, MULT)[0]


def _generate():
    return make_workload(BENCH, LENGTH, seed=SEED,
                         warmup_cold_multiplier=MULT)


def _key():
    return store_key(_fields(), LENGTH, SEED, MULT)


class TestRoundtrip:
    def test_loaded_workload_is_bit_identical(self, store):
        warmup, trace = _generate()
        key = _key()
        assert store.dump(key, warmup, trace, MULT)

        # A fresh instance: nothing shared with the dumping store.
        fresh = WorkloadStore(store.root)
        loaded = fresh.load(key)
        assert loaded is not None
        warmup2, trace2 = loaded

        assert list(warmup2) == list(warmup)
        assert trace2.metadata == trace.metadata
        assert len(trace2) == len(trace)
        for a, b in zip(trace, trace2):
            assert a == b

    def test_simulation_results_identical(self, store):
        warmup, trace = _generate()
        key = _key()
        store.dump(key, warmup, trace, MULT)
        warmup2, trace2 = WorkloadStore(store.root).load(key)

        ref = simulate(trace, num_slices=2, l2_cache_kb=128.0,
                       warmup_addresses=warmup)
        got = simulate(trace2, num_slices=2, l2_cache_kb=128.0,
                       warmup_addresses=warmup2)
        assert got.ipc == ref.ipc
        assert got.stats.summary() == ref.stats.summary()

    def test_columns_are_zero_copy_views(self, store):
        warmup, trace = _generate()
        key = _key()
        store.dump(key, warmup, trace, MULT)
        warmup2, trace2 = WorkloadStore(store.root).load(key)

        assert isinstance(warmup2, memoryview)
        assert warmup2.readonly
        arrays = materialize.materialize(trace2)
        assert isinstance(arrays.pcs, memoryview)
        assert arrays.pcs.readonly
        counters = store_counters()
        assert counters["mmap_opens"] == 1
        assert counters["bytes_mapped"] > 0

    def test_dump_is_idempotent(self, store):
        warmup, trace = _generate()
        key = _key()
        assert store.dump(key, warmup, trace, MULT) is True
        assert store.dump(key, warmup, trace, MULT) is False
        assert store.entries() == 1


class TestAddressing:
    def test_key_depends_on_every_parameter(self):
        fields = _fields()
        base = store_key(fields, LENGTH, SEED, MULT)
        assert store_key(fields, LENGTH + 1, SEED, MULT) != base
        assert store_key(fields, LENGTH, SEED + 1, MULT) != base
        assert store_key(fields, LENGTH, SEED, MULT + 1.0) != base
        other = workload_key("bzip", LENGTH, SEED, MULT)[0]
        assert store_key(other, LENGTH, SEED, MULT) != base

    def test_version_in_key(self):
        # STORE_VERSION is folded into the digest, so a layout bump
        # orphans old entries instead of misreading them.
        assert f"v{STORE_VERSION}" in str(
            WorkloadStore("x").entry_dir(_key()))


class TestCorruption:
    def test_truncated_bin_is_quarantined(self, store):
        warmup, trace = _generate()
        key = _key()
        store.dump(key, warmup, trace, MULT)
        bin_path = store.entry_dir(key) / "workload.bin"
        bin_path.write_bytes(bin_path.read_bytes()[:100])

        fresh = WorkloadStore(store.root)
        assert fresh.load(key) is None
        counters = store_counters()
        assert counters["corrupt"] == 1
        assert not store.entry_dir(key).exists()

    def test_corrupt_meta_is_quarantined(self, store):
        warmup, trace = _generate()
        key = _key()
        store.dump(key, warmup, trace, MULT)
        (store.entry_dir(key) / "meta.json").write_text(
            "{torn", encoding="utf-8")

        fresh = WorkloadStore(store.root)
        assert fresh.load(key) is None
        assert store_counters()["corrupt"] == 1

    def test_fetch_repairs_after_quarantine(self, store):
        warmup, trace = _generate()
        key = _key()
        store.dump(key, warmup, trace, MULT)
        (store.entry_dir(key) / "meta.json").write_text(
            "{torn", encoding="utf-8")

        fresh = WorkloadStore(store.root)
        warmup2, trace2 = fresh.fetch(_fields(), LENGTH, SEED, MULT,
                                      _generate)
        assert list(warmup2) == list(warmup)
        assert fresh.has(key)  # re-dumped by the repairing fetch


class TestFetch:
    def test_first_fetch_generates_and_dumps(self, store):
        calls = []

        def generate():
            calls.append(1)
            return _generate()

        warmup, trace = store.fetch(_fields(), LENGTH, SEED, MULT,
                                    generate)
        assert calls == [1]
        assert store.has(_key())
        assert store_counters()["dumps"] == 1

    def test_second_fetch_loads_without_generating(self, store):
        store.fetch(_fields(), LENGTH, SEED, MULT, _generate)

        def never():
            raise AssertionError("generator must not run on a hit")

        fresh = WorkloadStore(store.root)
        warmup, trace = fresh.fetch(_fields(), LENGTH, SEED, MULT, never)
        assert len(trace) == LENGTH
        assert store_counters()["hits"] >= 1

    def test_wedged_claim_falls_back_to_generation(self, tmp_path):
        # A live claim held by this very process never goes stale, so a
        # short claim_wait_s must degrade to local generation.
        store = WorkloadStore(tmp_path / "w", claim_wait_s=0.05)
        key = _key()
        assert store.claims.acquire(key)
        try:
            warmup, trace = store.fetch(_fields(), LENGTH, SEED, MULT,
                                        _generate)
            assert len(trace) == LENGTH
            assert store_counters()["claim_waits"] == 1
        finally:
            store.claims.release(key)

    def test_dead_claimant_claim_is_broken(self, store):
        # A claim owned by a dead pid is stale: the next fetch breaks
        # it and generates immediately instead of waiting out the TTL.
        key = _key()
        path = store.claims.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"pid": 999999999, "ts": 0.0}',
                        encoding="utf-8")
        old = os.stat(path)
        os.utime(path, (old.st_atime - 10, old.st_mtime - 10))

        warmup, trace = store.fetch(_fields(), LENGTH, SEED, MULT,
                                    _generate)
        assert len(trace) == LENGTH
        assert store_counters()["claim_waits"] == 0
        assert store.has(key)


class TestClaims:
    """The store's dump lock: O_EXCL claim files that a dead owner or an
    expired TTL cannot keep held."""

    def test_acquire_release_roundtrip(self, tmp_path):
        box = ClaimBox(tmp_path / "claims")
        assert box.acquire("k") is True
        assert box.active("k") is True
        assert box.acquire("k") is False  # live claim held (our pid)
        box.release("k")
        assert box.active("k") is False
        assert box.acquire("k") is True

    def test_dead_owner_claim_is_broken(self, tmp_path):
        box = ClaimBox(tmp_path / "claims")
        path = box.path("k")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"pid": 999999999, "ts": 0.0}',
                        encoding="utf-8")
        old = os.stat(path)
        os.utime(path, (old.st_atime - 10, old.st_mtime - 10))
        assert box.active("k") is False
        assert box.acquire("k") is True

    def test_aged_claim_expires(self, tmp_path):
        box = ClaimBox(tmp_path / "claims", ttl_s=0.05)
        assert box.acquire("k")
        time.sleep(0.1)
        assert box.active("k") is False  # own pid alive, but past TTL
        assert box.acquire("k") is True  # broken and re-taken

    def test_release_is_idempotent(self, tmp_path):
        box = ClaimBox(tmp_path / "claims")
        box.release("never-acquired")
        assert box.acquire("k")
        box.release("k")
        box.release("k")


class TestGetWorkloadTier:
    def test_store_tier_skips_generation(self, store):
        # Prime the store, then drop the LRU: the reload must come from
        # the store with zero generator invocations.
        get_workload(BENCH, LENGTH, seed=SEED,
                     warmup_cold_multiplier=MULT, store=store)
        assert materialize.cache_stats()["generations"] == 1

        materialize.clear()
        warmup, trace = get_workload(BENCH, LENGTH, seed=SEED,
                                     warmup_cold_multiplier=MULT,
                                     store=store)
        stats = materialize.cache_stats()
        assert stats["generations"] == 0
        assert len(trace) == LENGTH
        assert isinstance(warmup, memoryview)

    def test_default_store_installation(self, store):
        previous = materialize.set_store(store)
        try:
            get_workload(BENCH, LENGTH, seed=SEED,
                         warmup_cold_multiplier=MULT)
            assert store.has(_key())
        finally:
            materialize.set_store(previous)

    def test_explicit_none_bypasses_default(self, store):
        previous = materialize.set_store(store)
        try:
            get_workload(BENCH, LENGTH, seed=SEED,
                         warmup_cold_multiplier=MULT, store=None)
            assert not store.has(_key())
        finally:
            materialize.set_store(previous)

    def test_store_served_equals_generated(self, store):
        warmup_gen, trace_gen = get_workload(
            BENCH, LENGTH, seed=SEED, warmup_cold_multiplier=MULT)
        materialize.clear()
        get_workload(BENCH, LENGTH, seed=SEED,
                     warmup_cold_multiplier=MULT, store=store)
        materialize.clear()
        warmup_st, trace_st = get_workload(
            BENCH, LENGTH, seed=SEED, warmup_cold_multiplier=MULT,
            store=store)
        assert list(warmup_st) == list(warmup_gen)
        assert list(trace_st) == list(trace_gen)
