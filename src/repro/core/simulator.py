"""SSim: the trace-driven cycle-level simulator (paper Section 5.2).

Models every subsystem of the Sharing Architecture per cycle:

* **fetch** - interleaved two-per-Slice fetch with per-Slice bimodal
  predictor + BTB and an L1 I-cache with next-line prefetch (Section 3.1,
  3.5); a stall anywhere in the front end stalls every Slice.
* **rename** - two-stage global/local rename; multi-Slice VCores pay the
  master-broadcast pipeline depth (Section 3.2); remote source operands
  generate request/reply traffic on the Scalar Operand Network and are
  cached in the consumer's LRF.
* **issue** - separate per-Slice ALU and memory windows; oldest-first
  ready selection with the one-cycle-early remote wakeup folded into
  operand arrival times (Section 3.3).
* **execute** - one ALU (+ multiplier) and one load/store unit per Slice;
  operand transport on the switched SON at 2 cycles nearest-neighbour
  plus 1 per extra hop (Section 3.4).
* **memory** - loads/stores sorted to their address-interleaved home
  Slice, unordered age-tagged LSQ banks with store-commit violation
  search, store buffers, non-blocking caches, distance-priced L2 banks
  (Sections 3.5-3.6).
* **commit** - distributed ROB with Core Fusion style pre-commit pointer
  synchronisation (Section 3.7).

The simulator is trace-driven: wrong-path instructions are not executed;
a mispredicted branch instead stalls fetch until resolution plus the
redirect penalty, and a memory-order violation squashes and refetches
from the violating load.

:class:`SharingSimulator` and :func:`simulate` run the one cycle-level
core, the structure-of-arrays :class:`~repro.core.batched.BatchedSimulator`,
with or without ``repro.obs`` instrumentation.  Its object-model oracle
lives with the tests (``tests/oracles/objmodel``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Optional, Sequence, Tuple

from repro.core.config import SimConfig
from repro.core.stats import SimStats
from repro.trace.records import Trace

if TYPE_CHECKING:
    from repro.obs import Observability


class SimulationTimeout(RuntimeError):
    """The cycle budget ran out before the trace committed."""


@dataclass
class SimResult:
    """Outcome of one SSim run.

    Exact runs leave the sampling fields at their defaults.  Sampled
    runs (see :mod:`repro.sampling`) report *extrapolated* ``stats``
    plus the 95% confidence interval on IPC and a summary of the
    sampling schedule that produced them.
    """

    benchmark: str
    num_slices: int
    l2_cache_kb: float
    stats: SimStats
    #: True when ``stats`` are extrapolated from sampled detail windows.
    sampled: bool = False
    #: 95% confidence interval on IPC (lo, hi); ``None`` for exact runs.
    ipc_ci: Optional[Tuple[float, float]] = None
    #: Sampling-schedule summary (a ``repro.sampling`` dataclass).
    sampling: Optional[Any] = None

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    def performance(self) -> float:
        """Instructions per cycle - the ``P(c, s)`` the economics consume."""
        return self.stats.ipc


def _resolve_config(config: Optional[SimConfig],
                    num_slices: Optional[int],
                    l2_cache_kb: Optional[float],
                    timeout: Optional[int]) -> SimConfig:
    """``config`` with the VCore and cycle-budget keywords applied."""
    cfg = config or SimConfig()
    if num_slices is not None or l2_cache_kb is not None:
        cfg = cfg.with_vcore(
            num_slices=(num_slices if num_slices is not None
                        else cfg.vcore.num_slices),
            l2_cache_kb=(l2_cache_kb if l2_cache_kb is not None
                         else cfg.vcore.l2_cache_kb),
        )
    if timeout is not None:
        cfg = replace(cfg, max_cycles=timeout)
    return cfg


class SharingSimulator:
    """Cycle-level simulation of one trace on one VCore configuration.

    :meth:`run` runs the structure-of-arrays core
    (:class:`~repro.core.batched.BatchedSimulator`).

    ``warmup_addresses``, when given, is replayed *functionally* through
    the caches (a read-address stream, then the timed region's own PC
    stream; cache state only, no timing) before the timed region, so
    short timed traces see steady-state miss rates rather than a
    cold-cache compulsory-miss wall.  This substitutes for the
    fast-forward phase of the paper's full-length GEM5 trace runs.
    ``timeout`` caps the run at that many cycles.

    An enabled ``obs`` (an :class:`~repro.obs.Observability`) gets the
    run's per-Slice, per-L2-bank and per-LSQ-bank counters under
    ``sim.*`` once the run ends and, when it traces, the
    pipeline/cache/network events on one track per Slice.  Results are
    the same with or without it.
    """

    def __init__(self, trace: Trace, config: Optional[SimConfig] = None,
                 num_slices: Optional[int] = None,
                 l2_cache_kb: Optional[float] = None,
                 warmup_addresses: Optional[Sequence[int]] = None,
                 timeout: Optional[int] = None,
                 obs: Optional["Observability"] = None):
        self.trace = trace
        self.config = _resolve_config(config, num_slices, l2_cache_kb,
                                      timeout)
        self.warmup_addresses = warmup_addresses
        self.obs = obs if obs is not None and obs.enabled else None

    def run(self) -> SimResult:
        """Simulate the whole trace; raises :class:`SimulationTimeout`."""
        # Imported on first use: callers that never simulate (the
        # analytic sweeps) do not load repro.core.batched.
        from repro.core.batched import BatchedSimulator

        core = BatchedSimulator(self.trace, self.config,
                                self.warmup_addresses)
        obs = self.obs
        if obs is None:
            return core.run()
        if obs.tracing:
            core.tracer = obs.tracer
            for sid in range(core.num_slices):
                obs.tracer.set_thread_name(sid, f"slice{sid}")
        result = core.run()
        core.flush_counters(obs.scope("sim"))
        return result


def simulate(trace: Trace, num_slices: Optional[int] = None,
             l2_cache_kb: Optional[float] = None,
             config: Optional[SimConfig] = None,
             warmup_addresses: Optional[Sequence[int]] = None,
             timeout: Optional[int] = None,
             obs: Optional["Observability"] = None) -> SimResult:
    """Convenience wrapper: simulate ``trace`` on one VCore configuration.

    ``SharingSimulator(trace, ...).run()`` with the same keywords;
    ``num_slices`` and ``l2_cache_kb`` default to ``config.vcore``'s.
    """
    return SharingSimulator(trace, config=config, num_slices=num_slices,
                            l2_cache_kb=l2_cache_kb,
                            warmup_addresses=warmup_addresses,
                            timeout=timeout, obs=obs).run()
