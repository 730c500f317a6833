"""First-order analytic model of VCore performance.

Performance is expressed as IPC from four additive CPI components:

* **core** - dependence-limited issue rate: the harmonic combination of
  the structural width (ALU/LSU ports across Slices) and the benchmark's
  ILP, the latter degraded by Scalar Operand Network latency for the
  fraction of dependence edges that cross Slices;
* **rename/branch** - branch mispredictions pay the front-end depth,
  which grows with the multi-Slice global-rename broadcast;
* **memory** - L1 misses pay the distance-dependent L2 hit latency
  (paper Table 3: ``distance * 2 + 4``; Section 5.4: 2 extra cycles per
  additional 256 KB) and L2 misses additionally the 100-cycle memory
  delay, divided by the benchmark's memory-level parallelism (which grows
  with the aggregate window);
* **threading cap** - PARSEC VCores are speedup-bounded
  (paper Section 5.3: "the speedup is bounded by 2").

The constants below are the calibration surface; they were tuned so the
model reproduces the published shapes (Figure 12 scaling order, Figure 13
peaks and declines, Tables 4/6/7 optima drift).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Dict, Sequence, Tuple, Union

from repro.trace.profiles import BenchmarkProfile, get_profile

#: Cache sweep used throughout the evaluation (paper Equation 3 and
#: Figure 13: 0 KB to 8 MB).
CACHE_GRID_KB: Tuple[float, ...] = (0, 64, 128, 256, 512, 1024, 2048, 4096, 8192)

#: Slice sweep (paper Equation 3: 1 to 8 Slices).
SLICE_GRID: Tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)

# ---------------------------------------------------------------------
# calibration constants
# ---------------------------------------------------------------------

#: Structural ALU-path utilisation: one ALU per Slice serves the non-mem
#: fraction of the stream, so the width-limited IPC is slices / this.
ALU_PATH_FRACTION = 0.66
#: Out-of-order tolerance to operand-network latency (cycles of remote
#: latency hidden per dependence edge by the issue window).
COMM_TOLERANCE = 9.0
#: Base front-end refill depth on a mispredict (fetch+decode+rename+issue).
BRANCH_PENALTY_BASE = 12.0
#: Extra mispredict depth per multi-Slice VCore (global rename broadcast).
BRANCH_PENALTY_MULTISLICE = 3.0
#: Memory-level parallelism growth per extra Slice, scaled by how much
#: intrinsic memory parallelism the workload has (bigger windows cannot
#: overlap a serial pointer chase, but MSHRs, LSQ banks and window
#: capacity all grow with Slice count, Table 1).
MLP_PER_SLICE = 0.55
#: Fixed component of the L2 hit delay (paper Table 3: distance*2+4).
L2_LAT_BASE = 4.0
L2_LAT_PER_DISTANCE = 2.0
#: Main memory delay (paper Table 2).
MEMORY_DELAY = 100.0
#: Fraction of L1-hit latency exposed on the critical path.
L1_EXPOSED = 0.35
#: L1 hit latency (paper Table 3).
L1_LATENCY = 3.0

ProfileLike = Union[str, BenchmarkProfile]


def _resolve(profile: ProfileLike) -> BenchmarkProfile:
    if isinstance(profile, BenchmarkProfile):
        return profile
    return get_profile(profile)


def _check_config(cache_kb: float, slices: int) -> None:
    """The model's domain: at least one Slice, no negative cache."""
    if slices < 1:
        raise ValueError("a VCore has at least one Slice")
    if cache_kb < 0:
        raise ValueError("cache size cannot be negative")


def profile_key(profile: ProfileLike) -> Tuple[Tuple[str, object], ...]:
    """Canonical hashable identity of a profile: its fields, sorted.

    The engine's on-disk cache keys simulation units off this, so a
    sweep over ``"gcc"`` and one over ``get_profile("gcc")`` share
    entries.
    """
    return tuple(sorted(asdict(_resolve(profile)).items()))


def l2_mean_latency(cache_kb: float) -> float:
    """Average L2 hit latency for a compact 2-D ``cache_kb`` allocation.

    Banks pack in Manhattan rings (4r banks at distance r), interleaved
    uniformly, so the average hit pays the capacity-weighted mean
    distance at ``distance * 2 + 4`` (paper Table 3).
    """
    if cache_kb <= 0:
        return 0.0
    banks = max(1, int(round(cache_kb / 64.0)))
    total_dist = 0
    placed = 0
    ring = 1
    while placed < banks:
        take = min(4 * ring, banks - placed)
        total_dist += ring * take
        placed += take
        ring += 1
    mean_distance = total_dist / banks
    return L2_LAT_BASE + L2_LAT_PER_DISTANCE * mean_distance


@dataclass(frozen=True)
class CPIBreakdown:
    """The additive CPI components for one configuration."""

    core: float
    branch: float
    memory: float

    @property
    def total(self) -> float:
        return self.core + self.branch + self.memory

    @property
    def ipc(self) -> float:
        return 1.0 / self.total


class AnalyticModel:
    """Analytic ``P(c, s)`` evaluator."""

    def __init__(self, comm_tolerance: float = COMM_TOLERANCE,
                 mlp_per_slice: float = MLP_PER_SLICE):
        if comm_tolerance <= 0:
            raise ValueError("comm_tolerance must be positive")
        if mlp_per_slice < 0:
            raise ValueError("mlp_per_slice cannot be negative")
        self.comm_tolerance = comm_tolerance
        self.mlp_per_slice = mlp_per_slice

    # ------------------------------------------------------------------
    # CPI components
    # ------------------------------------------------------------------

    def _effective_ilp(self, profile: BenchmarkProfile, slices: int) -> float:
        """ILP after operand-network degradation."""
        if slices == 1:
            return profile.ilp
        cross_fraction = profile.comm_sens * (1.0 - 1.0 / slices)
        mean_hops = (slices + 1) / 3.0
        one_way = 1.0 + mean_hops  # 2 cycles nearest neighbour, +1/hop
        penalty = cross_fraction * one_way / self.comm_tolerance
        return profile.ilp / (1.0 + penalty)

    def _core_cpi(self, profile: BenchmarkProfile, slices: int) -> float:
        width_cap = min(2.0 * slices, slices / ALU_PATH_FRACTION)
        ilp = self._effective_ilp(profile, slices)
        ipc = 1.0 / (1.0 / width_cap + 1.0 / ilp)
        return 1.0 / ipc

    def _branch_cpi(self, profile: BenchmarkProfile, slices: int) -> float:
        penalty = BRANCH_PENALTY_BASE
        if slices > 1:
            penalty += BRANCH_PENALTY_MULTISLICE + (slices + 1) / 3.0
        return (profile.br_mpki / 1000.0) * penalty

    def _memory_cpi(self, profile: BenchmarkProfile, cache_kb: float,
                    slices: int) -> float:
        miss = profile.l2_miss_fraction(cache_kb)
        l2_lat = l2_mean_latency(cache_kb)
        avg = l2_lat + miss * MEMORY_DELAY
        # Window growth multiplies MLP only to the extent the workload has
        # independent misses to expose (mlp > 1); a serial chase stays
        # serial no matter how many Slices watch it.  Growth saturates
        # (sqrt) because the MSHR chain depth, not just capacity, limits
        # overlap.
        mlp = profile.mlp * (
            1.0 + self.mlp_per_slice * (profile.mlp - 1.0)
            * math.sqrt(slices - 1)
        )
        # L1 hit latency partially exposed; larger windows hide more.
        exposed_l1 = (L1_EXPOSED * L1_LATENCY * (profile.frac_load / 0.25)
                      / (10.0 * (1.0 + 0.3 * (slices - 1))))
        return (profile.l1_mpki / 1000.0) * avg / mlp + exposed_l1

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def breakdown(self, profile: ProfileLike, cache_kb: float,
                  slices: int) -> CPIBreakdown:
        """CPI decomposition for one configuration."""
        prof = _resolve(profile)
        _check_config(cache_kb, slices)
        return CPIBreakdown(
            core=self._core_cpi(prof, slices),
            branch=self._branch_cpi(prof, slices),
            memory=self._memory_cpi(prof, cache_kb, slices),
        )

    def performance(self, profile: ProfileLike, cache_kb: float,
                    slices: int) -> float:
        """Single-thread performance ``P(c, s)`` in IPC.

        PARSEC profiles are speedup-capped per the paper: whatever the
        analytic pipeline would deliver, the per-VCore speedup over one
        Slice never exceeds ``thread_cap``.
        """
        prof = _resolve(profile)
        ipc = self.breakdown(prof, cache_kb, slices).ipc
        if prof.thread_cap and slices > 1:
            base = self.breakdown(prof, cache_kb, 1).ipc
            ipc = min(ipc, prof.thread_cap * base)
        return ipc

    def speedup(self, profile: ProfileLike, cache_kb: float, slices: int,
                baseline_cache_kb: float = 128.0,
                baseline_slices: int = 1) -> float:
        """Performance normalised to a baseline configuration (Fig 12/13)."""
        return (
            self.performance(profile, cache_kb, slices)
            / self.performance(profile, baseline_cache_kb, baseline_slices)
        )

    def grid(self, profile: ProfileLike,
             cache_grid: Sequence[float] = CACHE_GRID_KB,
             slice_grid: Sequence[int] = SLICE_GRID
             ) -> Dict[Tuple[float, int], float]:
        """Full ``{(cache_kb, slices): P}`` sweep for one benchmark."""
        prof = _resolve(profile)
        return {
            (c, s): self.performance(prof, c, s)
            for c in cache_grid
            for s in slice_grid
        }


@lru_cache(maxsize=None)
def _default_model() -> AnalyticModel:
    return AnalyticModel()


@lru_cache(maxsize=65536)
def _performance_memo(profile: BenchmarkProfile, cache_kb: float,
                      slices: int) -> float:
    # BenchmarkProfile is a frozen dataclass, so it hashes and compares
    # by field values: a name resolved through get_profile() and an
    # equal ad-hoc profile land on the same memo entry.
    return _default_model().performance(profile, cache_kb, slices)


def performance(benchmark: ProfileLike, cache_kb: float,
                slices: int) -> float:
    """Memoised ``P(c, s)`` through the default model.

    Accepts a benchmark name or a :class:`BenchmarkProfile`; both are
    memoised on the profile's field values, so they share entries.
    """
    return _performance_memo(_resolve(benchmark), cache_kb, slices)


def performance_grid(benchmark: ProfileLike) -> Dict[Tuple[float, int], float]:
    """Memoised full sweep for one benchmark."""
    return _default_model().grid(benchmark)
