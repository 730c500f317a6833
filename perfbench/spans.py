"""In-memory span recorder that wraps the program's public functions.

The traced run installs :data:`LAYER_SPANS` with :meth:`SpanRecorder.wrap`:
each call of a wrapped function records one span (name, start, end,
parent span) into flat array columns.  Nothing is written while the
run is timed; :meth:`SpanRecorder.dump` writes the spans out afterwards.

A span's *self* time is its duration minus the time its child spans
cover.  Calls are single-threaded and properly nested, so child spans
never overlap and the self times of every span under a root sum to the
root's duration exactly.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name): the public functions each layer
#: exposes to the workloads.  Several functions may share one span name
#: (their calls and self times add up).
LAYER_SPANS: Tuple[Tuple[str, str, str], ...] = (
    # repro.trace: synthetic generator, materialize, workload LRU
    ("repro.trace.generator", "SyntheticTraceGenerator.__init__",
     "trace.generator.init"),
    ("repro.trace.generator", "SyntheticTraceGenerator.warmup_addresses",
     "trace.warmup_addresses"),
    ("repro.trace.generator", "SyntheticTraceGenerator.generate",
     "trace.generate"),
    ("repro.trace.materialize", "materialize", "trace.materialize"),
    ("repro.trace.materialize", "get_workload", "trace.get_workload"),
    # repro.core: scalar SharingSimulator (with repro.cache and
    # repro.network inside) and the batched backend
    ("repro.core.simulator", "SharingSimulator.__init__",
     "core.scalar.init"),
    ("repro.core.simulator", "SharingSimulator.run", "core.scalar.run"),
    ("repro.core.batched", "trace_columns", "core.batched.columns"),
    ("repro.core.batched", "BatchedSimulator.__init__",
     "core.batched.init"),
    ("repro.core.batched", "BatchedSimulator.run_sampled",
     "core.batched.run_sampled"),
    # repro.engine: sweep engine and result cache
    ("repro.engine.core", "SweepEngine.run", "engine.run"),
    ("repro.engine.cache", "ResultCache.get", "engine.cache.get"),
    ("repro.engine.cache", "ResultCache.put", "engine.cache.put"),
    # repro.economics: the market optimizer
    ("repro.economics.optimizer", "UtilityOptimizer.prime",
     "economics.optimizer"),
    ("repro.economics.optimizer", "UtilityOptimizer.best",
     "economics.optimizer"),
    ("repro.economics.optimizer", "UtilityOptimizer.table6",
     "economics.optimizer"),
    ("repro.economics.optimizer", "UtilityOptimizer.utility_surface",
     "economics.optimizer"),
    # repro.cloud: hypervisor placement, fabric, service, arena
    ("repro.cloud.hypervisor", "Hypervisor.place", "cloud.hypervisor.place"),
    ("repro.cloud.fabric", "Fabric.find_contiguous_slices",
     "cloud.fabric.find_contiguous_slices"),
    ("repro.cloud.fabric", "Fabric.find_nearest_banks",
     "cloud.fabric.find_nearest_banks"),
    ("repro.cloud.fabric", "Fabric.claim", "cloud.fabric.claim"),
    ("repro.cloud.fabric", "Fabric.release", "cloud.fabric.release"),
    ("repro.cloud.service", "AllocationService.submit",
     "cloud.service.submit"),
    ("repro.cloud.service", "AllocationService.depart",
     "cloud.service.depart"),
    ("repro.cloud.service", "AllocationService.resize",
     "cloud.service.resize"),
    ("repro.cloud.service", "AllocationService.step", "cloud.service.step"),
    ("repro.cloud.arena", "TensorArena.submit", "cloud.arena"),
    ("repro.cloud.arena", "TensorArena.depart", "cloud.arena"),
    ("repro.cloud.arena", "TensorArena.set_budget", "cloud.arena"),
    ("repro.cloud.arena", "TensorArena.compact", "cloud.arena"),
)


class Patches:
    """Program attributes replaced by wrappers, put back by :meth:`undo`
    in reverse order, so that wrappers may stack."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def wrap(self, module_name: str, path: str,
             make: Callable[[Any], Any]) -> None:
        """Replace ``module_name:path`` with ``make(original)``.

        A class attribute is read from the class ``__dict__`` so that
        what :meth:`undo` puts back is the object that was taken out.
        """
        owner: Any = importlib.import_module(module_name)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class SpanRecorder:
    """Nested spans kept in flat columns; one recorder per traced pass."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: List[int] = []
        self._patches = Patches()

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    def _intern(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = len(self.names)
            self.names.append(name)
            self._name_ids[name] = ident
        return ident

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span named ``name`` per call."""
        ident = self._intern(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(ident)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap every :data:`LAYER_SPANS` target in place (undo with
        :meth:`uninstall`)."""
        for module_name, path, name in LAYER_SPANS:
            self._patches.wrap(module_name, path,
                               lambda fn, name=name: self.wrap(name, fn))

    def uninstall(self) -> None:
        self._patches.undo()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> List[float]:
        """Each span's duration minus its direct children's durations."""
        n = len(self.start)
        own = [self.end[i] - self.start[i] for i in range(n)]
        selfs = list(own)
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                selfs[p] -= own[i]
        return selfs

    def by_name(self) -> Dict[str, Dict[str, Any]]:
        """``{name: {calls, self_s, total_s, durations}}``."""
        selfs = self.self_times()
        out: Dict[str, Dict[str, Any]] = {
            name: {"calls": 0, "self_s": 0.0, "durations": []}
            for name in self.names
        }
        for i in range(len(self.start)):
            entry = out[self.names[self.name_id[i]]]
            entry["calls"] += 1
            entry["self_s"] += selfs[i]
            entry["durations"].append(self.end[i] - self.start[i])
        return out

    def dump(self, path: str, extra: Optional[Dict[str, Any]] = None
             ) -> None:
        """Write every span (times in microseconds from the first span)."""
        t0 = self.start[0] if len(self.start) else 0.0
        payload = {
            "names": self.names,
            "name": list(self.name_id),
            "parent": list(self.parent),
            "start_us": [round((s - t0) * 1e6, 1) for s in self.start],
            "end_us": [round((e - t0) * 1e6, 1) for e in self.end],
        }
        if extra:
            payload.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
