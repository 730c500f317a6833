"""Sampled simulation: fast-forward + detailed windows + extrapolation.

:func:`simulate_sampled` runs
:meth:`~repro.core.batched.BatchedSimulator.run_sampled`, which
alternates between functional fast-forward (caches/predictors/store
state warm, zero timed cycles) and bounded detailed windows planned by a
:class:`~repro.sampling.policy.SamplingPolicy`.  Each window's warmup
prefix re-times the pipeline and is discarded; the measured suffix
contributes one per-interval CPI observation.  The same loop on the
object model, ``tests/oracles/sampled.py``, is the reference every
sampled result is checked against.

The run reports an extrapolated :class:`SimResult`:

* ``stats.cycles`` is ``total_instructions * mean(CPI_i)``; event
  counters observed only inside detailed windows (fetch, branches,
  stalls, L1I, operand traffic) are scaled to full-trace magnitude.
* ``l1d``/``l2`` counters are **not** extrapolated: fast-forward streams
  every memory access and every PC through the hierarchy, so those miss
  counts - and hence the reported miss *rates* - cover the entire trace
  exactly.
* ``ipc_ci`` is the ``z * s / sqrt(n)`` confidence interval on IPC from
  the per-window CPI variance, widened to the policy's systematic
  ``bias_floor`` (statistics cannot see warmup bias, so the interval is
  never reported narrower than that floor).

A schedule that plans too few windows (short traces) degenerates to the
exact simulator: the run then returns a plain exact result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.config import SimConfig
from repro.core.simulator import SimResult, _resolve_config
from repro.core.stats import SimStats, StallBreakdown
from repro.sampling.policy import DEFAULT_SAMPLING, SamplingConfig, Schedule
from repro.trace.records import Trace


@dataclass(frozen=True)
class SamplingSummary:
    """What a sampled run actually did, attached to ``SimResult``."""

    windows: int
    measured_instructions: int
    detailed_instructions: int
    fast_forwarded: int
    total_instructions: int
    head_instructions: int
    cpi_mean: float
    cpi_std: float
    ipc_estimate: float
    ci_halfwidth: float

    @property
    def detail_fraction(self) -> float:
        if not self.total_instructions:
            return 1.0
        return self.detailed_instructions / self.total_instructions

    @property
    def relative_error(self) -> float:
        """Reported CI half-width as a fraction of the IPC estimate."""
        if not self.ipc_estimate:
            return 0.0
        return self.ci_halfwidth / self.ipc_estimate


def _scaled_stats(measured: SimStats, total: int,
                  ipc_hat: float) -> SimStats:
    """Full-trace statistics extrapolated from the detailed windows.

    Window-only counters scale by ``total / detailed``; the L1D and
    L2 counters are already full-trace (fast-forward streams every
    access through the hierarchy) and pass through unscaled.
    """
    detailed = max(1, measured.committed)
    scale = total / detailed

    def s(count: int) -> int:
        return round(count * scale)

    stalls = StallBreakdown(**{
        name: s(value)
        for name, value in measured.stalls.as_dict().items()
    })
    return SimStats(
        cycles=max(1, round(total / ipc_hat)),
        fetched=s(measured.fetched),
        committed=total,
        squashed=s(measured.squashed),
        branches=s(measured.branches),
        branch_mispredicts=s(measured.branch_mispredicts),
        l1i_accesses=s(measured.l1i_accesses),
        l1i_misses=s(measured.l1i_misses),
        l1d_accesses=measured.l1d_accesses,
        l1d_misses=measured.l1d_misses,
        l2_accesses=measured.l2_accesses,
        l2_misses=measured.l2_misses,
        operand_requests=s(measured.operand_requests),
        remote_operand_hops=s(measured.remote_operand_hops),
        lsq_violations=s(measured.lsq_violations),
        store_forwards=s(measured.store_forwards),
        stalls=stalls,
    )


def extrapolate_sampled(*, benchmark: str, num_slices: int,
                        l2_cache_kb: float, total: int,
                        schedule: Schedule, sampling: SamplingConfig,
                        stats: SimStats, ff_retired: int,
                        cpis: Sequence[float],
                        head_cycles: int = 0) -> SimResult:
    """Two-stratum estimator: exact head cycles + sampled tail CPI.

    ``total_cycles ~= head_cycles + tail_insts * mean(CPI_i)``; all
    statistical uncertainty lives in the tail term, so the CI is the
    per-window CPI variance propagated through the tail only.  Shared by
    ``BatchedSimulator.run_sampled`` and the sampled reference loop in
    ``tests/oracles/sampled.py`` (same window CPIs in must mean same
    ``SimResult`` out).
    """
    cfg = sampling
    head = schedule.head
    tail = total - head
    n = len(cpis)
    cpi_mean = sum(cpis) / n
    if n > 1:
        var = sum((c - cpi_mean) ** 2 for c in cpis) / (n - 1)
        cpi_std = math.sqrt(var)
    else:
        cpi_std = 0.0
    est_cycles = head_cycles + tail * cpi_mean
    ipc_hat = total / est_cycles

    # CI on total cycles -> CI on IPC (monotone transform), then
    # widen to the systematic bias floor.
    hw_cycles = cfg.confidence_z * (cpi_std / math.sqrt(n)) * tail
    if hw_cycles < est_cycles:
        ipc_lo = total / (est_cycles + hw_cycles)
        ipc_hi = total / (est_cycles - hw_cycles)
    else:  # variance blew past the mean: clamp at zero
        ipc_lo = 0.0
        ipc_hi = 2.0 * ipc_hat
    floor = cfg.bias_floor * ipc_hat
    ipc_lo = min(ipc_lo, ipc_hat - floor)
    ipc_hi = max(ipc_hi, ipc_hat + floor)

    summary = SamplingSummary(
        windows=n,
        measured_instructions=schedule.measured_instructions,
        detailed_instructions=stats.committed,
        fast_forwarded=ff_retired,
        total_instructions=total,
        head_instructions=head,
        cpi_mean=cpi_mean,
        cpi_std=cpi_std,
        ipc_estimate=ipc_hat,
        ci_halfwidth=max(ipc_hi - ipc_hat, ipc_hat - ipc_lo),
    )
    return SimResult(
        benchmark=benchmark,
        num_slices=num_slices,
        l2_cache_kb=l2_cache_kb,
        stats=_scaled_stats(stats, total, ipc_hat),
        sampled=True,
        ipc_ci=(ipc_lo, ipc_hi),
        sampling=summary,
    )


def simulate_sampled(trace: Trace, num_slices: Optional[int] = None,
                     l2_cache_kb: Optional[float] = None,
                     sampling: SamplingConfig = DEFAULT_SAMPLING,
                     config: Optional[SimConfig] = None,
                     warmup_addresses: Optional[Sequence[int]] = None,
                     timeout: Optional[int] = None,
                     phase_lengths: Optional[Sequence[int]] = None
                     ) -> SimResult:
    """Sampled counterpart of :func:`repro.core.simulator.simulate`.

    Takes :func:`~repro.core.simulator.simulate`'s keywords except
    ``obs`` (no per-cycle instrumentation on sampled runs), plus the
    sampling policy; ``phase_lengths`` (instruction counts, in order)
    switches the policy to per-phase stratification.
    """
    from repro.core.batched import BatchedSimulator

    cfg = _resolve_config(config, num_slices, l2_cache_kb, timeout)
    return BatchedSimulator(trace, cfg, warmup_addresses).run_sampled(
        sampling, phase_lengths=phase_lengths)
