"""First-order energy model for VCore configurations.

The paper frames its performance-preference metrics through the energy
literature's Energy*Delay^2 / Energy*Delay^3 lens (Section 2.2) and
synthesises power along with area from the 45 nm flow (Section 5.1).
This module provides the matching energy side: per-event energies for
the major structures (scaled from the CACTI-like capacities), static
leakage proportional to area, and a per-instruction energy estimate for
a VCore configuration driven by the same profile statistics the
performance model uses.

Energies are in nanojoules; absolute values are representative of a
45 nm node, but as with area only *relative* comparisons are consumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.area.model import AreaModel
from repro.economics.tensor import performance_tensor
from repro.perfmodel.model import (
    CACHE_GRID_KB,
    SLICE_GRID,
    AnalyticModel,
    ProfileLike,
    _resolve,
    l2_mean_latency,
)
from repro.trace.profiles import BenchmarkProfile


@dataclass(frozen=True)
class EnergyParameters:
    """Per-event energies (nJ) and leakage density at 45 nm."""

    alu_op_nj: float = 0.010
    register_access_nj: float = 0.004
    rename_nj: float = 0.006
    issue_wakeup_nj: float = 0.008
    #: Energy per hop per operand on the switched networks.
    network_hop_nj: float = 0.005
    dram_access_nj: float = 2.0
    #: Static leakage per mm^2 per cycle at a nominal 1 GHz.
    leakage_nj_per_mm2_cycle: float = 0.0004


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-instruction energy components (nJ)."""

    core: float
    l1: float
    l2: float
    memory: float
    network: float
    leakage: float

    @property
    def total(self) -> float:
        return (self.core + self.l1 + self.l2 + self.memory
                + self.network + self.leakage)

    def as_dict(self) -> Dict[str, float]:
        return {
            "core": self.core,
            "l1": self.l1,
            "l2": self.l2,
            "memory": self.memory,
            "network": self.network,
            "leakage": self.leakage,
        }


class EnergyModel:
    """Energy per instruction and energy-delay metrics for VCores.

    The grid searches take ``P`` from
    :func:`~repro.economics.tensor.performance_tensor`, so they read
    ``perf_model`` only through the kernel's model contract; the
    one-point methods call ``perf_model.performance``.
    """

    def __init__(self, params: Optional[EnergyParameters] = None,
                 area_model: Optional[AreaModel] = None,
                 perf_model: Optional[AnalyticModel] = None):
        self.params = params or EnergyParameters()
        self.area_model = area_model or AreaModel()
        self.perf_model = perf_model or AnalyticModel()
        self.cacti = self.area_model.cacti

    # ------------------------------------------------------------------
    # energy terms: per profile, per (profile, Slices), per (profile,
    # cache) and per (cache, Slices)
    # ------------------------------------------------------------------

    def _core_l1_nj(self, prof: BenchmarkProfile) -> Tuple[float, float]:
        p = self.params
        # Core: execute + rename (two stages) + wakeup + register traffic.
        core = (p.alu_op_nj + 2 * p.rename_nj + p.issue_wakeup_nj
                + 2 * p.register_access_nj)
        # L1: every memory op plus every fetch pair touches an L1 array.
        mem_frac = prof.frac_load + prof.frac_store
        l1_access = self.cacti.access_energy_nj(16)
        l1 = mem_frac * l1_access + 0.5 * l1_access  # data + instruction
        return core, l1

    def _network_nj(self, prof: BenchmarkProfile, slices: int) -> float:
        # Multi-Slice VCores pay the rename broadcast and remote operand
        # traffic per crossing dependence edge.
        cross_fraction = (prof.comm_sens * (1.0 - 1.0 / slices)
                          if slices > 1 else 0.0)
        mean_hops = (slices + 1) / 3.0 if slices > 1 else 0.0
        return cross_fraction * mean_hops * self.params.network_hop_nj * 2

    def _l2_memory_nj(self, prof: BenchmarkProfile,
                      cache_kb: float) -> Tuple[float, float]:
        p = self.params
        # L2: L1 misses travel hops to the home bank and read it.
        l1_miss_rate = prof.l1_mpki / 1000.0
        bank_access = self.cacti.access_energy_nj(64)
        l2_hops = max(0.0, (l2_mean_latency(cache_kb) - 4.0) / 2.0)
        l2 = l1_miss_rate * (bank_access + l2_hops * p.network_hop_nj) \
            if cache_kb > 0 else 0.0
        # DRAM: L2 misses (or everything, with no L2).
        miss = prof.l2_miss_fraction(cache_kb)
        memory = l1_miss_rate * miss * p.dram_access_nj
        return l2, memory

    def _leakage_nj(self, area, ipc):
        """Leakage: area burns every cycle; amortise by IPC.  ``area``
        and ``ipc`` are floats or equal-shape arrays."""
        return (area * self.params.leakage_nj_per_mm2_cycle
                / np.maximum(ipc, 1e-9))

    # ------------------------------------------------------------------
    # energy per instruction
    # ------------------------------------------------------------------

    def energy_per_instruction(self, profile: ProfileLike, cache_kb: float,
                               slices: int) -> EnergyBreakdown:
        """Average energy per committed instruction (nJ)."""
        prof = _resolve(profile)
        if slices < 1 or cache_kb < 0:
            raise ValueError("invalid configuration")
        core, l1 = self._core_l1_nj(prof)
        l2, memory = self._l2_memory_nj(prof, cache_kb)
        ipc = self.perf_model.performance(prof, cache_kb, slices)
        area = self.area_model.vcore_area(cache_kb, slices)
        return EnergyBreakdown(core=core, l1=l1, l2=l2, memory=memory,
                               network=self._network_nj(prof, slices),
                               leakage=float(self._leakage_nj(area, ipc)))

    # ------------------------------------------------------------------
    # energy-delay metrics
    # ------------------------------------------------------------------

    def energy_delay(self, profile: ProfileLike, cache_kb: float,
                     slices: int, delay_exponent: int = 1) -> float:
        """``E * D^n`` per instruction (delay = 1 / IPC in cycles).

        ``n = 2`` and ``n = 3`` are the Energy*Delay^2 / Energy*Delay^3
        metrics the paper's Section 2.2 draws its utility analogy from.
        """
        if delay_exponent < 0:
            raise ValueError("delay exponent cannot be negative")
        energy = self.energy_per_instruction(profile, cache_kb, slices).total
        ipc = self.perf_model.performance(profile, cache_kb, slices)
        delay = 1.0 / ipc
        return energy * (delay ** delay_exponent)

    def energy_delay_grid(self, profile: ProfileLike,
                          delay_exponents: Sequence[int],
                          cache_grid: Sequence[float] = CACHE_GRID_KB,
                          slice_grid: Sequence[int] = SLICE_GRID
                          ) -> Dict[int, "np.ndarray"]:
        """``{n: E * D^n}`` over the ``(cache, slices)`` grid.

        One pass per profile: ``P`` from one
        :func:`~repro.economics.tensor.performance_tensor` call, the
        energy terms hoisted to the axes they vary on, and every
        exponent's ``E * D^n`` from that one ``(E, 1/P)`` pair.  Each
        cell equals :meth:`energy_delay` at that configuration bit for
        bit (for a ``perf_model`` that does not override
        ``performance``): same term arithmetic, same summation order,
        and ``D ** n`` is Python's ``float ** int`` (libm ``pow``), as
        there; numpy's ``power`` rounds some cells differently.
        """
        if any(n < 0 for n in delay_exponents):
            raise ValueError("delay exponent cannot be negative")
        prof = _resolve(profile)
        perf = performance_tensor([prof], cache_grid, slice_grid,
                                  model=self.perf_model)[0]
        area = np.array([[self.area_model.vcore_area(c, s)
                          for s in slice_grid] for c in cache_grid])
        core, l1 = self._core_l1_nj(prof)
        l2_memory = np.array([self._l2_memory_nj(prof, c)
                              for c in cache_grid])
        l2, memory = l2_memory[:, :1], l2_memory[:, 1:]
        network = np.array([self._network_nj(prof, s)
                            for s in slice_grid]).reshape(1, -1)
        # EnergyBreakdown.total's summation order.
        energy = (core + l1 + l2 + memory + network
                  + self._leakage_nj(area, perf)).ravel().tolist()
        delay = (1.0 / perf).ravel().tolist()
        return {
            n: np.array([e * (d ** n) for e, d in zip(energy, delay)])
            .reshape(perf.shape)
            for n in delay_exponents
        }

    def best_configs(self, profile: ProfileLike,
                     delay_exponents: Sequence[int],
                     cache_grid=None, slice_grid=None
                     ) -> Dict[int, Tuple[float, int]]:
        """``{n: the E*D^n-minimising configuration}`` from one grid pass.

        Ties go to the first minimum in (cache outer, slice inner) order.
        """
        cache_grid = cache_grid or CACHE_GRID_KB
        slice_grid = slice_grid or SLICE_GRID
        grids = self.energy_delay_grid(profile, delay_exponents,
                                       cache_grid, slice_grid)
        best = {}
        for n, values in grids.items():
            ci, si = divmod(int(np.argmin(values)), len(slice_grid))
            best[n] = (cache_grid[ci], slice_grid[si])
        return best

    def best_config(self, profile: ProfileLike, delay_exponent: int = 2,
                    cache_grid=None, slice_grid=None):
        """The ``E*D^n``-minimising configuration on the standard grid."""
        return self.best_configs(profile, (delay_exponent,), cache_grid,
                                 slice_grid)[delay_exponent]
