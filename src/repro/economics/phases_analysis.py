"""Dynamic-phase reconfiguration analysis (paper Section 5.10, Table 7).

gcc is divided into 10 phases; for each performance-area metric the
optimal VCore configuration is found per phase, and the dynamic schedule
(reconfiguring at phase boundaries) is compared with the best *static*
configuration for the whole program.  Reconfiguration costs 10 000 cycles
when the cache allocation changes and 500 cycles when only the Slice
count changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.area.model import AreaModel
from repro.core.reconfig import ReconfigurationEngine
from repro.economics.efficiency import EfficiencyMetric, area_matrix
from repro.economics.tensor import performance_tensor
from repro.perfmodel.model import AnalyticModel, CACHE_GRID_KB, SLICE_GRID
from repro.trace.phases import PhasedProfile


@dataclass(frozen=True)
class PhaseScheduleResult:
    """Dynamic vs static outcome for one metric."""

    metric_name: str
    per_phase_configs: Tuple[Tuple[float, int], ...]
    static_config: Tuple[float, int]
    dynamic_score: float
    static_score: float
    reconfig_cycles: int

    @property
    def gain(self) -> float:
        """Fractional improvement of dynamic over static (paper: 9-19%)."""
        if self.static_score <= 0:
            return float("inf")
        return self.dynamic_score / self.static_score - 1.0


def _geometric_mean(values: Sequence[float]) -> float:
    if any(v <= 0 for v in values):
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def analyze_phases(
    phased: PhasedProfile,
    metric: EfficiencyMetric,
    model: Optional[AnalyticModel] = None,
    area_model: Optional[AreaModel] = None,
    reconfig: Optional[ReconfigurationEngine] = None,
    cache_grid: Sequence[float] = CACHE_GRID_KB,
    slice_grid: Sequence[int] = SLICE_GRID,
) -> PhaseScheduleResult:
    """Compare per-phase reconfiguration with the best static config.

    Scores are the geometric mean across phases of
    ``performance^k / area`` (matching the paper's GME aggregation);
    the dynamic score is discounted by the reconfiguration overhead as a
    fraction of total execution cycles, mirroring Table 7's accounting.

    ``P`` for every phase comes from one
    :func:`~repro.economics.tensor.performance_tensor` call, which reads
    ``model`` only through its ``comm_tolerance`` and ``mlp_per_slice``
    (the kernel's model contract).  Each (phase, configuration) metric
    value is computed once, by ``metric.value``, and serves both the
    per-phase and the static optimum; ties go to the first maximum in
    (cache outer, slice inner) order.
    """
    reconfig = reconfig or ReconfigurationEngine()
    configs = [(c, s) for c in cache_grid for s in slice_grid]
    perf = performance_tensor([phase.profile for phase in phased],
                              cache_grid, slice_grid,
                              model=model).reshape(len(phased), -1).tolist()
    area = area_matrix(area_model, cache_grid, slice_grid).ravel().tolist()
    values = [[metric.value(p, a) for p, a in zip(row, area)]
              for row in perf]

    # --- dynamic schedule: per-phase optimum ---
    best = [row.index(max(row)) for row in values]
    per_phase = [configs[j] for j in best]
    dynamic_scores = [row[j] for row, j in zip(values, best)]

    # --- reconfiguration overhead as a cycle fraction ---
    reconfig_cycles = reconfig.schedule_cost(per_phase)
    total_cycles = 0.0
    for phase, row, j in zip(phased, perf, best):
        total_cycles += phase.instructions / row[j]
    overhead_factor = total_cycles / (total_cycles + reconfig_cycles)

    dynamic_score = _geometric_mean(dynamic_scores) * overhead_factor

    # --- best static configuration across all phases ---
    static = [_geometric_mean(column) for column in zip(*values)]
    j = static.index(max(static))

    return PhaseScheduleResult(
        metric_name=metric.name,
        per_phase_configs=tuple(per_phase),
        static_config=configs[j],
        dynamic_score=dynamic_score,
        static_score=static[j],
        reconfig_cycles=reconfig_cycles,
    )
