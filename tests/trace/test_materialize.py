"""Tests for the trace columns ``materialize`` returns and the workload
LRU."""

import pytest

from repro.obs import Observability
from repro.trace import materialize as mat
from repro.trace.generator import make_workload
from repro.trace.materialize import get_workload, workload_key
from repro.trace.records import (
    FLAG_BRANCH, FLAG_LOAD, FLAG_MUL, FLAG_STORE, FLAG_TAKEN, FLAG_WRITES,
)


@pytest.fixture(autouse=True)
def fresh_lru():
    """Isolate every test from the process-global LRU."""
    mat.clear()
    mat.set_capacity(mat.DEFAULT_CAPACITY)
    yield
    mat.clear()
    mat.set_capacity(mat.DEFAULT_CAPACITY)


class TestTraceArrays:
    """``materialize`` returns the trace, whose columns are its data."""

    def test_columns_match_instructions(self):
        _, trace = make_workload("gcc", 800, seed=3)
        arrays = mat.materialize(trace)
        assert len(arrays) == len(trace)
        for i, inst in enumerate(trace):
            assert arrays.pcs[i] == inst.pc
            assert arrays.opcodes[i] == inst.opcode
            assert arrays.srcs[i] == inst.live_srcs()
            bits = arrays.flags[i]
            if inst.mem is not None:
                assert arrays.mem_addrs[i] == inst.mem.address
                assert bool(bits & (FLAG_LOAD | FLAG_STORE))
                assert bool(bits & FLAG_STORE) == inst.is_store
            else:
                assert arrays.mem_addrs[i] == -1
            assert bool(bits & FLAG_BRANCH) == inst.is_branch
            assert bool(bits & FLAG_TAKEN) == (inst.is_branch
                                               and inst.taken)
            assert bool(bits & FLAG_MUL) == (inst.opcode.name == "MUL")
            assert bool(bits & FLAG_WRITES) == inst.writes_register
            assert arrays.dsts[i] == (inst.dst if inst.writes_register
                                      else -1)
            expected_target = (inst.target
                               if inst.target is not None else -1)
            assert arrays.targets[i] == expected_target

    def test_materialize_caches_on_trace(self):
        _, trace = make_workload("gcc", 300, seed=1)
        first = mat.materialize(trace)
        second = mat.materialize(trace)
        assert first is second


class TestWorkloadLRU:
    def test_hit_and_miss_counters(self):
        get_workload("gcc", 400, 1)
        stats = mat.cache_stats()
        assert (stats["hits"], stats["misses"]) == (0, 1)
        get_workload("gcc", 400, 1)
        stats = mat.cache_stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)
        get_workload("gcc", 400, 2)  # different seed: distinct entry
        assert mat.cache_stats()["misses"] == 2

    def test_identical_to_make_workload(self):
        cached_warmup, cached_trace = get_workload("mcf", 500, 7)
        fresh_warmup, fresh_trace = make_workload("mcf", 500, seed=7)
        assert cached_warmup == fresh_warmup
        assert len(cached_trace) == len(fresh_trace)
        for a, b in zip(cached_trace, fresh_trace):
            assert a.pc == b.pc
            assert (a.mem is None) == (b.mem is None)
            if a.mem is not None:
                assert a.mem.address == b.mem.address

    def test_returns_same_objects_on_hit(self):
        warmup_a, trace_a = get_workload("gcc", 400, 1)
        warmup_b, trace_b = get_workload("gcc", 400, 1)
        assert trace_a is trace_b
        assert warmup_a is warmup_b

    def test_eviction_at_capacity(self):
        mat.set_capacity(2)
        get_workload("gcc", 300, 1)
        get_workload("gcc", 300, 2)
        get_workload("gcc", 300, 3)  # evicts seed-1 entry
        stats = mat.cache_stats()
        assert stats["evictions"] == 1
        assert stats["size"] == 2
        get_workload("gcc", 300, 1)  # regenerated: a miss again
        assert mat.cache_stats()["misses"] == 4

    def test_lru_order_refreshes_on_hit(self):
        mat.set_capacity(2)
        get_workload("gcc", 300, 1)
        get_workload("gcc", 300, 2)
        get_workload("gcc", 300, 1)       # refresh seed 1
        get_workload("gcc", 300, 3)       # must evict seed 2, not 1
        get_workload("gcc", 300, 1)
        assert mat.cache_stats()["hits"] == 2

    def test_set_capacity_validates(self):
        with pytest.raises(ValueError):
            mat.set_capacity(0)

    def test_key_distinguishes_all_axes(self):
        keys = {
            workload_key("gcc", 400, 1),
            workload_key("gcc", 400, 2),
            workload_key("gcc", 500, 1),
            workload_key("mcf", 400, 1),
            workload_key("gcc", 400, 1, warmup_cold_multiplier=2.0),
        }
        assert len(keys) == 5


class TestObsIntegration:
    def test_gauges_track_counters(self):
        obs = Observability()
        mat.attach_obs(obs.scope("trace.workload_lru"))
        get_workload("gcc", 300, 1)
        get_workload("gcc", 300, 1)
        snap = obs.snapshot()
        assert snap["trace.workload_lru.hits"]["value"] == 1
        assert snap["trace.workload_lru.misses"]["value"] == 1
