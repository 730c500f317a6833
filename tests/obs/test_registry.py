"""Unit tests for the instrument registry (repro.obs.registry)."""

import pytest

from repro.obs.registry import (
    Counter,
    Histogram,
    NULL_REGISTRY,
    NULL_SCOPE,
    Registry,
    summarize,
)


class TestCounterTimerGauge:
    def test_counter_increments(self):
        reg = Registry()
        c = reg.counter("a.b.c")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert reg.snapshot()["a.b.c"]["value"] == 5

    def test_same_path_returns_same_instrument(self):
        reg = Registry()
        assert reg.counter("x") is reg.counter("x")

    def test_path_kind_conflict_raises(self):
        reg = Registry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.timer("x")

    def test_gauge_samples_lazily(self):
        reg = Registry()
        state = {"v": 1}
        reg.gauge("g", lambda: state["v"])
        state["v"] = 42
        assert reg.snapshot()["g"]["value"] == 42

    def test_timer_context_manager(self):
        reg = Registry()
        t = reg.timer("t")
        with t:
            pass
        t.add(0.5)
        snap = reg.snapshot()["t"]
        assert snap["count"] == 2
        assert snap["total_s"] >= 0.5


class TestScope:
    def test_nested_scopes_build_dotted_paths(self):
        reg = Registry()
        reg.scope("sim").scope("core").counter("rob").inc()
        assert "sim.core.rob" in reg.snapshot()

    def test_as_tree_nests_by_dots(self):
        reg = Registry()
        reg.counter("a.b").inc(2)
        reg.counter("a.c").inc(3)
        tree = reg.as_tree()
        assert tree["a"]["b"]["value"] == 2
        assert tree["a"]["c"]["value"] == 3

    def test_info_is_static_metadata(self):
        reg = Registry()
        reg.scope("x").info("capacity", 8)
        assert reg.snapshot()["info"]["x.capacity"] == 8

    def test_drop_removes_a_whole_subtree(self):
        reg = Registry()
        reg.counter("sim").inc()
        reg.counter("sim.core.rob").inc()
        reg.gauge("sim.core.slice7.loads", lambda: 3)
        reg.scope("sim").info("core.rob.capacity", 64)
        reg.counter("simulator.runs").inc()
        reg.counter("engine.sweeps").inc()
        reg.info("engine.jobs", 1)
        reg.drop("sim")
        assert reg.names() == ["engine.sweeps", "simulator.runs"]
        assert reg.snapshot()["info"] == {"engine.jobs": 1}
        NULL_REGISTRY.drop("sim")  # the disabled registry takes it too


class TestHistogram:
    def test_exact_moments_survive_thinning(self):
        h = Histogram("h", max_samples=64)
        for i in range(10_000):
            h.observe(float(i))
        snap = h.snapshot()
        assert snap["count"] == 10_000
        assert snap["min"] == 0.0
        assert snap["max"] == 9999.0
        assert snap["mean"] == pytest.approx(4999.5)
        # retained sample list stays bounded
        assert len(h._samples) <= 64

    def test_thinning_is_deterministic(self):
        def build():
            h = Histogram("h", max_samples=32)
            for i in range(1000):
                h.observe(float(i))
            return h._samples

        assert build() == build()

    def test_percentiles_monotone(self):
        h = Histogram("h")
        for i in range(100):
            h.observe(float(i))
        assert h.percentile(0.5) <= h.percentile(0.9) <= h.percentile(0.99)


class TestSummarize:
    def test_empty(self):
        assert summarize([])["count"] == 0

    def test_basic_stats(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s["count"] == 4
        assert s["mean"] == 2.5
        assert s["min"] == 1.0
        assert s["max"] == 4.0


class TestNullObjects:
    def test_null_scope_is_free_and_inert(self):
        c = NULL_SCOPE.counter("x")
        c.inc()
        t = NULL_SCOPE.timer("t")
        with t:
            pass
        NULL_SCOPE.histogram("h").observe(1.0)
        NULL_SCOPE.gauge("g", lambda: 1 / 0)  # callable never sampled
        NULL_SCOPE.info("i", object())
        assert NULL_REGISTRY.snapshot() == {}

    def test_null_scope_children_are_shared_singletons(self):
        assert NULL_SCOPE.scope("a") is NULL_SCOPE.scope("b")

    def test_null_counter_is_shared(self):
        a = NULL_SCOPE.counter("a")
        b = NULL_SCOPE.counter("b")
        a.inc(100)
        assert a is b


def test_counter_slots_block_stray_attributes():
    c = Counter("c")
    with pytest.raises(AttributeError):
        c.typo = 1
