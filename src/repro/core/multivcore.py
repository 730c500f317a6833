"""Multi-VCore Virtual Machines: PARSEC-style multithreaded runs.

Paper Section 5.3: "For PARSEC, benchmarks use four threads on four
equally configured VCores which share an L2 Cache."  Section 3.5 places
the coherence point between the L1 and L2 caches, with a directory in
the shared L2 whose protocol charges switched-network cost by distance
and invalidates remote L1s.

This module composes N single-thread simulations - one per VCore - over
one shared L2 and one MSI directory.  Threads run their own traces (the
generator gives each thread a distinct seed over a *shared* data region
plus a private stack region), and the simulation reports both per-thread
and whole-VM timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cache.coherence import Directory
from repro.core.config import SimConfig, l2_size_error
from repro.core.simulator import SharingSimulator, SimResult
from repro.network.topology import Mesh2D
from repro.trace.generator import SyntheticTraceGenerator
from repro.trace.profiles import BenchmarkProfile, get_profile
from repro.trace.records import FLAG_STORE, Trace

#: Fraction of cold data that multithreaded workloads share (drives
#: coherence traffic); PARSEC pipelines share working queues.
DEFAULT_SHARED_FRACTION = 0.35


@dataclass
class ThreadResult:
    """One thread's timing on its VCore."""

    thread_id: int
    result: SimResult
    coherence_stall_cycles: int


@dataclass
class MultiVCoreResult:
    """Whole-VM outcome: the slowest thread defines completion."""

    threads: List[ThreadResult]
    directory_invalidations: int
    directory_downgrades: int

    @property
    def vm_cycles(self) -> int:
        """Barrier semantics: the VM finishes when its last thread does."""
        return max(
            t.result.cycles + t.coherence_stall_cycles for t in self.threads
        )

    @property
    def total_committed(self) -> int:
        return sum(t.result.stats.committed for t in self.threads)

    @property
    def aggregate_ipc(self) -> float:
        return self.total_committed / self.vm_cycles if self.vm_cycles else 0.0


def generate_thread_traces(benchmark: str, length: int, num_threads: int,
                           seed: int = 0,
                           shared_fraction: float = DEFAULT_SHARED_FRACTION
                           ) -> List[Trace]:
    """Per-thread traces with a shared cold-data region.

    Each thread gets its own generator (distinct control flow and private
    data), but a ``shared_fraction`` of cold lines is remapped into one
    common region so the threads contend coherently, as PARSEC pipelines
    do over their queues.
    """
    if num_threads < 1:
        raise ValueError("need at least one thread")
    if not 0 <= shared_fraction <= 1:
        raise ValueError("shared fraction must be in [0, 1]")
    profile = get_profile(benchmark)
    traces = []
    for tid in range(num_threads):
        generator = SyntheticTraceGenerator(profile, seed=seed * 101 + tid)
        trace = generator.generate(length)
        traces.append(_remap_shared(trace, tid, shared_fraction))
    return traces


#: Base of the region shared by all threads of a VM.
_SHARED_BASE = 0x7000_0000
#: Span of the shared region (lines).
_SHARED_LINES = 4096


def _remap_shared(trace: Trace, thread_id: int,
                  shared_fraction: float) -> Trace:
    """Deterministically remap a fraction of cold lines into the shared
    region (same mapping for every thread, so the regions collide)."""
    threshold = shared_fraction * 1000
    addrs = []
    for addr in trace.mem_addrs:
        if addr >= 0x1100_0000:
            line = addr // 64
            if (line * 2654435761) % 1000 < threshold:
                addr = _SHARED_BASE + (line % _SHARED_LINES) * 64
        addrs.append(addr)
    return Trace.from_columns(trace.metadata, trace.pcs, trace.opcodes,
                              trace.srcs, trace.dsts, addrs, trace.flags,
                              trace.targets)


class MultiVCoreSimulator:
    """Runs one multithreaded workload on N equally configured VCores.

    Each VCore simulates independently (threads do not stall each other
    at instruction granularity); inter-VCore interference is charged
    afterwards through the shared directory: every thread replays its
    shared-region accesses against the MSI directory, and the resulting
    invalidation/downgrade latencies accrue as coherence stall cycles.
    This is a decoupled model of the paper's detailed one - it preserves
    the trends (more sharing or more distant VCores => more stall) while
    staying tractable in Python.
    """

    def __init__(self, benchmark: str, num_vcores: int = 4,
                 slices_per_vcore: int = 2, l2_cache_kb: float = 512.0,
                 trace_length: int = 2000, seed: int = 0,
                 shared_fraction: float = DEFAULT_SHARED_FRACTION,
                 config: Optional[SimConfig] = None):
        if num_vcores < 1:
            raise ValueError("need at least one VCore")
        message = l2_size_error(l2_cache_kb / num_vcores)
        if message is not None:
            raise ValueError(
                f"{l2_cache_kb:g} KB of L2 shared by {num_vcores} VCores "
                f"is {l2_cache_kb / num_vcores:g} KB each: {message}")
        self.benchmark = benchmark
        self.num_vcores = num_vcores
        self.slices_per_vcore = slices_per_vcore
        self.l2_cache_kb = l2_cache_kb
        self.base_config = config or SimConfig()
        self.traces = generate_thread_traces(
            benchmark, trace_length, num_vcores, seed=seed,
            shared_fraction=shared_fraction,
        )
        # VCores laid out in a row; directory distance = VCore distance.
        mesh = Mesh2D(width=num_vcores, height=1)
        self.directory = Directory(
            distance_fn=mesh.distance, cycles_per_hop=1, base_msg_latency=1
        )

    def run(self) -> MultiVCoreResult:
        threads: List[ThreadResult] = []
        per_vcore_share = self.l2_cache_kb / self.num_vcores
        for tid, trace in enumerate(self.traces):
            cfg = self.base_config.with_vcore(
                num_slices=self.slices_per_vcore,
                l2_cache_kb=per_vcore_share,
            )
            result = SharingSimulator(trace, cfg).run()
            stall = self._coherence_stalls(tid, trace)
            threads.append(ThreadResult(thread_id=tid, result=result,
                                        coherence_stall_cycles=stall))
        stats = self.directory.stats
        return MultiVCoreResult(
            threads=threads,
            directory_invalidations=stats.invalidations_sent,
            directory_downgrades=stats.downgrades,
        )

    def _coherence_stalls(self, vcore_id: int, trace: Trace) -> int:
        """Replay shared-region accesses against the MSI directory."""
        stall = 0
        for addr, bits in zip(trace.mem_addrs, trace.flags):
            if addr < _SHARED_BASE:
                continue
            line = addr // 64
            if bits & FLAG_STORE:
                outcome = self.directory.write(line, vcore_id)
            else:
                outcome = self.directory.read(line, vcore_id)
            stall += outcome.extra_latency
        return stall
