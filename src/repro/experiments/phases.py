"""Table 7: optimal VCore configurations for gcc's 10 phases.

Per-phase optimal configurations under the three efficiency metrics, the
best static configuration, and the dynamic-over-static gain net of
reconfiguration costs (10 000 cycles on a cache change, 500 cycles on a
Slice-only change).  The paper reports gains of 9.1% / 15.1% / 19.4%.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.economics.efficiency import STANDARD_METRICS, EfficiencyMetric
from repro.economics.phases_analysis import PhaseScheduleResult, analyze_phases
from repro.experiments.base import ExperimentResult
from repro.trace.phases import PhasedProfile, gcc_phases

NAME = "phases"


@dataclass(frozen=True)
class PhasesResult(ExperimentResult):
    """``{metric: PhaseScheduleResult}`` for the phased benchmark."""

    schedules: Dict[str, PhaseScheduleResult]


def run(phased: Optional[PhasedProfile] = None,
        metrics: Sequence[EfficiencyMetric] = STANDARD_METRICS,
        engine=None) -> PhasesResult:
    """Table 7 as a frozen result."""
    start = time.perf_counter()
    phased = phased or gcc_phases()
    schedules = {
        metric.name: analyze_phases(phased, metric)
        for metric in metrics
    }
    rows = tuple(
        {"metric": name,
         "static_cache_kb": sched.static_config[0],
         "static_slices": sched.static_config[1],
         "reconfig_cycles": sched.reconfig_cycles,
         "gain": sched.gain}
        for name, sched in schedules.items()
    )
    return PhasesResult(
        name=NAME,
        params={"benchmark": phased.name,
                "phases": len(phased),
                "metrics": [m.name for m in metrics]},
        rows=rows,
        elapsed=time.perf_counter() - start,
        schedules=schedules,
    )


def render(result: PhasesResult) -> None:
    print(f"Table 7: {result.params['benchmark']} dynamic phases "
          f"({result.params['phases']} phases)")
    for name, sched in result.schedules.items():
        configs = " ".join(
            f"({int(c)}K,{s})" for c, s in sched.per_phase_configs
        )
        print(f"== {name} ==")
        print(f"  per-phase optima: {configs}")
        static_c, static_s = sched.static_config
        print(f"  best static: ({int(static_c)} KB, {static_s} Slices)")
        print(f"  reconfiguration cycles: {sched.reconfig_cycles}")
        print(f"  dynamic/static gain: {sched.gain * 100:.1f}%")


def main() -> None:
    render(run())


if __name__ == "__main__":
    main()
