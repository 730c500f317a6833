"""Sampled-simulation oracle: the interval-sampling loop on the object model.

Production runs interval sampling on the structure-of-arrays core
(:meth:`repro.core.batched.BatchedSimulator.run_sampled`).  This is the
same loop driven through :class:`~repro.core.simulator.ReferenceSimulator`'s
``fast_forward`` / ``run_to_commit``: an exhaustively timed head, then
for every planned window a functional fast-forward gap, a discarded
detailed warmup prefix and a measured suffix that contributes one CPI
observation.  Both feed the shared estimator
:func:`~repro.sampling.sampled.extrapolate_sampled`, so equal window
CPIs must give equal ``SimResult`` objects.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.config import SimConfig
from repro.core.simulator import ReferenceSimulator, SimResult
from repro.sampling.policy import (
    DEFAULT_SAMPLING, SamplingConfig, SamplingPolicy,
)
from repro.sampling.sampled import extrapolate_sampled
from repro.trace.records import Trace


def simulate_sampled(trace: Trace, num_slices: Optional[int] = None,
                     l2_cache_kb: Optional[float] = None,
                     sampling: SamplingConfig = DEFAULT_SAMPLING,
                     config: Optional[SimConfig] = None,
                     warmup_addresses: Optional[Sequence[int]] = None,
                     timeout: Optional[int] = None,
                     phase_lengths: Optional[Sequence[int]] = None
                     ) -> SimResult:
    """:func:`repro.sampling.simulate_sampled` on the object model."""
    sim = ReferenceSimulator(
        trace, config=config, num_slices=num_slices,
        l2_cache_kb=l2_cache_kb, warmup_addresses=warmup_addresses,
        timeout=timeout,
    )
    policy = SamplingPolicy(sampling)
    schedule = (policy.plan_phases(phase_lengths)
                if phase_lengths is not None else policy.plan(len(trace)))
    if schedule.exact:
        return sim.run()

    total = len(trace)
    cpis: List[float] = []
    position = 0
    head_cycles = 0
    if schedule.head:
        sim._fetch_limit = schedule.head
        sim.run_to_commit(schedule.head)
        head_cycles = sim._now
        position = schedule.head
    for window in schedule.windows:
        if window.start > position:
            sim.fast_forward(window.start - position)
        committed_base = sim.stats.committed
        sim._fetch_limit = window.end
        # Commit can overshoot the warmup boundary by up to one cycle's
        # commit width, so measure against the observed counts.
        sim.run_to_commit(committed_base + window.warmup)
        cycles_0 = sim._now
        committed_0 = sim.stats.committed
        sim.run_to_commit(committed_base + len(window))
        measured = sim.stats.committed - committed_0
        cpis.append((sim._now - cycles_0) / measured)
        position = window.end
    if position < total:
        sim.fast_forward(total - position)

    sim._harvest_cache_stats()
    return extrapolate_sampled(
        benchmark=trace.metadata.benchmark,
        num_slices=sim.vcore.num_slices,
        l2_cache_kb=sim.vcore.l2_cache_kb,
        total=total,
        schedule=schedule,
        sampling=sampling,
        stats=sim.stats,
        ff_retired=sim.ff_retired,
        cpis=cpis,
        head_cycles=head_cycles,
    )
