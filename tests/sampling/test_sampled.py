"""Tests for the sampled simulator: mechanics, accounting, fallbacks."""

import pytest

from repro.core.simulator import simulate
from repro.sampling import SamplingConfig, SamplingPolicy, simulate_sampled
from repro.trace.materialize import get_workload
from tests.oracles.sampled import simulate_sampled as oracle_sampled


CFG = SamplingConfig(interval=1000, detail=200, warmup=80, head=500,
                     jitter_seed=7)


def _workload(bench="gcc", length=12_000, seed=1):
    return get_workload(bench, length, seed)


class TestMechanics:
    def test_reports_sampled_result(self):
        warmup, trace = _workload()
        result = simulate_sampled(trace, num_slices=2, l2_cache_kb=256.0,
                                  sampling=CFG, warmup_addresses=warmup)
        assert result.sampled
        summary = result.sampling
        assert summary is not None
        assert summary.windows > 0
        assert summary.total_instructions == 12_000
        assert summary.head_instructions == 500
        assert 0.0 < summary.detail_fraction < 1.0
        # Committed (detailed) + fast-forwarded must cover the trace.
        assert (summary.detailed_instructions + summary.fast_forwarded
                == 12_000)

    def test_ci_brackets_the_estimate(self):
        warmup, trace = _workload()
        result = simulate_sampled(trace, num_slices=2, l2_cache_kb=256.0,
                                  sampling=CFG, warmup_addresses=warmup)
        lo, hi = result.ipc_ci
        assert lo < result.ipc < hi
        # Interval at least as wide as the systematic bias floor.
        assert hi - result.ipc >= CFG.bias_floor * result.ipc * 0.999
        assert result.ipc - lo >= CFG.bias_floor * result.ipc * 0.999

    def test_deterministic(self):
        warmup, trace = _workload()
        a = simulate_sampled(trace, num_slices=2, l2_cache_kb=256.0,
                             sampling=CFG, warmup_addresses=warmup)
        b = simulate_sampled(trace, num_slices=2, l2_cache_kb=256.0,
                             sampling=CFG, warmup_addresses=warmup)
        assert a.ipc == b.ipc
        assert a.ipc_ci == b.ipc_ci
        assert a.stats.summary() == b.stats.summary()

    def test_memory_counters_are_full_trace(self):
        # Fast-forward streams every access through the hierarchy, so
        # the L1D counters cover the whole trace (not a scaled-up window
        # sample): at least one access per memory instruction, and a
        # miss count close to the exact run's (small wrong-path delta).
        warmup, trace = _workload(length=8_000)
        sampled = simulate_sampled(trace, num_slices=2,
                                   l2_cache_kb=256.0, sampling=CFG,
                                   warmup_addresses=warmup)
        exact = simulate(trace, num_slices=2, l2_cache_kb=256.0,
                         warmup_addresses=warmup)
        mem_ops = sum(1 for inst in trace if inst.mem is not None)
        assert sampled.stats.l1d_accesses >= mem_ops
        assert sampled.stats.l1d_misses == pytest.approx(
            exact.stats.l1d_misses, rel=0.05)

    def test_short_trace_falls_back_to_exact(self):
        warmup, trace = _workload(length=1_500)
        result = simulate_sampled(trace, num_slices=2, l2_cache_kb=256.0,
                                  sampling=CFG, warmup_addresses=warmup)
        assert not result.sampled
        assert result.sampling is None
        exact = simulate(trace, num_slices=2, l2_cache_kb=256.0,
                         warmup_addresses=warmup)
        assert result.stats.summary() == exact.stats.summary()

    def test_schedule_visible_before_run(self):
        """The policy plans the schedule a run follows before any
        simulation: its windows are the run's windows."""
        warmup, trace = _workload()
        schedule = SamplingPolicy(CFG).plan(len(trace))
        assert not schedule.exact
        assert schedule.length == 12_000
        result = simulate_sampled(trace, num_slices=2, l2_cache_kb=256.0,
                                  sampling=CFG, warmup_addresses=warmup)
        assert result.sampling.windows == len(schedule.windows)
        assert (result.sampling.measured_instructions
                == schedule.measured_instructions)


class TestPhaseStratification:
    def test_phase_lengths_shape_the_schedule(self):
        warmup, trace = _workload()
        phases = [6_000, 6_000]
        schedule = SamplingPolicy(CFG).plan_phases(phases)
        starts = [w.start for w in schedule.windows]
        assert any(s < 6_000 for s in starts)
        assert any(s >= 6_000 for s in starts)
        result = simulate_sampled(trace, num_slices=2, l2_cache_kb=256.0,
                                  sampling=CFG, warmup_addresses=warmup,
                                  phase_lengths=phases)
        assert result.sampled
        assert result.sampling.windows == len(schedule.windows)
        assert result == oracle_sampled(
            trace, num_slices=2, l2_cache_kb=256.0, sampling=CFG,
            warmup_addresses=warmup, phase_lengths=phases)


class TestScaling:
    def test_committed_reported_at_trace_size(self):
        warmup, trace = _workload()
        result = simulate_sampled(trace, num_slices=2, l2_cache_kb=256.0,
                                  sampling=CFG, warmup_addresses=warmup)
        assert result.stats.committed == 12_000
        assert result.stats.cycles == pytest.approx(
            12_000 / result.ipc, abs=1.0)
