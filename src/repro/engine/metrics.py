"""Run metrics for the sweep engine and the experiment runner.

* :class:`UnitStat` - one work unit's telemetry inside a
  :class:`~repro.engine.core.SweepResult` (the record of one sweep; the
  engine's ``engine.*`` obs instruments keep the running totals).
* :class:`RunMetrics` - used by the experiment runner to time each
  experiment and to export the whole run as JSON, with the
  observability snapshot when one is attached.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional


@dataclass(frozen=True)
class UnitStat:
    """Telemetry for one evaluated work unit.

    Cache hits appear with ``cached=True`` and zero timings; evaluated
    units carry the pid of the worker that ran them plus how long the
    unit waited in the pool queue and how long evaluation took.
    """

    benchmark: str
    points: int
    cached: bool
    worker_pid: int = 0
    queue_wait_s: float = 0.0
    eval_s: float = 0.0


class RunMetrics:
    """Per-experiment wall time for one runner pass.

    With ``obs`` attached, every measured experiment also becomes a
    complete-span trace event (category ``runner``) and the exported
    dict carries the observability snapshot.
    """

    def __init__(self, obs: Optional[Any] = None):
        self.obs = obs
        self.experiments: List[Dict[str, Any]] = []

    @contextmanager
    def measure(self, name: str):
        from repro.obs.profiling import now_us

        start = time.perf_counter()
        start_us = now_us()
        entry: Dict[str, Any] = {"name": name}
        try:
            yield entry
        finally:
            wall = time.perf_counter() - start
            entry["wall_s"] = wall
            self.experiments.append(entry)
            if self.obs is not None and self.obs.tracing:
                self.obs.tracer.complete(
                    f"experiment.{name}", ts=start_us,
                    dur=wall * 1e6, cat="runner")

    @property
    def total_wall_s(self) -> float:
        return sum(e["wall_s"] for e in self.experiments)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "total_wall_s": self.total_wall_s,
            "experiments": self.experiments,
        }
        if self.obs is not None and self.obs.enabled:
            out["obs"] = self.obs.snapshot()
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)
