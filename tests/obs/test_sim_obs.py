"""Simulator observability: attachment, event coverage, bit-identity."""

import pytest

from repro.core.simulator import simulate
from repro.obs import OBS_OFF, Observability
from repro.trace.generator import make_workload


@pytest.fixture(scope="module")
def workload():
    return make_workload("gcc", 1500, seed=3)


def _stats_dict(result):
    return result.stats.summary()


class TestAttachment:
    def test_registry_covers_core_cache_network(self, workload):
        warmup, trace = workload
        obs = Observability()
        simulate(trace, num_slices=2, warmup_addresses=warmup, obs=obs)
        names = set(obs.snapshot())
        assert any(n.startswith("sim.core.rob.") for n in names)
        assert any(n.startswith("sim.core.slice0.l1d.") for n in names)
        assert any(n.startswith("sim.cache.l2.") for n in names)
        assert any(n.startswith("sim.network.son.") for n in names)

    def test_counters_agree_with_sim_stats(self, workload):
        warmup, trace = workload
        obs = Observability()
        result = simulate(trace, num_slices=2, warmup_addresses=warmup,
                          obs=obs)
        snap = obs.snapshot()
        l1d_misses = sum(
            snap[f"sim.core.slice{s}.l1d.misses"]["value"] for s in (0, 1)
        )
        assert l1d_misses == result.stats.l1d_misses

    def test_reused_obs_holds_only_the_last_run(self, workload):
        """An obs reused across runs reports the last VCore only: an
        8-Slice run's ``slice2``-``slice7`` gauges do not outlive it."""
        warmup, trace = workload
        obs = Observability()
        simulate(trace, num_slices=8, warmup_addresses=warmup, obs=obs)
        result = simulate(trace, num_slices=2, warmup_addresses=warmup,
                          obs=obs)
        fresh = Observability()
        simulate(trace, num_slices=2, warmup_addresses=warmup, obs=fresh)
        snap = obs.snapshot()
        assert snap == fresh.snapshot()
        slices = {name.split(".")[2] for name in snap
                  if name.startswith("sim.core.slice")}
        assert slices == {"slice0", "slice1"}
        assert sum(snap[f"sim.core.slice{s}.l1d.misses"]["value"]
                   for s in (0, 1)) == result.stats.l1d_misses

    def test_trace_covers_core_cache_network(self, workload):
        warmup, trace = workload
        obs = Observability(trace=True)
        simulate(trace, num_slices=2, warmup_addresses=warmup, obs=obs)
        cats = set(obs.tracer.categories())
        assert {"core", "cache", "network"} <= cats
        assert obs.tracer.dropped + len(obs.tracer) == obs.tracer.emitted


class TestBitIdentity:
    def test_obs_off_and_on_are_bit_identical(self, workload):
        warmup, trace = workload
        base = simulate(trace, num_slices=2, warmup_addresses=warmup)
        off = simulate(trace, num_slices=2, warmup_addresses=warmup,
                       obs=OBS_OFF)
        on = simulate(trace, num_slices=2, warmup_addresses=warmup,
                      obs=Observability(trace=True))
        assert _stats_dict(base) == _stats_dict(off) == _stats_dict(on)

    def test_default_run_attaches_nothing(self, workload):
        warmup, trace = workload
        result = simulate(trace, num_slices=2, warmup_addresses=warmup)
        assert result.stats.committed > 0
