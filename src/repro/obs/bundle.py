"""The :class:`Observability` bundle and its disabled singleton."""

from __future__ import annotations

from typing import Any, Dict

from repro.obs.registry import NULL_REGISTRY, Registry
from repro.obs.tracer import DEFAULT_CAPACITY, NULL_TRACER, EventTracer


class Observability:
    """One registry + one tracer, threaded through ``obs=`` parameters."""

    def __init__(self, enabled: bool = True, trace: bool = False,
                 trace_capacity: int = DEFAULT_CAPACITY):
        self.enabled = enabled
        self.registry = Registry() if enabled else NULL_REGISTRY
        self.tracer = (EventTracer(capacity=trace_capacity)
                       if enabled and trace else NULL_TRACER)

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled

    def scope(self, prefix: str = ""):
        return self.registry.scope(prefix)

    def snapshot(self) -> Dict[str, Any]:
        """Flat ``{dotted.path: instrument snapshot}`` of the registry."""
        return self.registry.snapshot()

    def export_trace(self, path, process_name: str = "repro") -> None:
        """Write the tracer's Chrome trace_event JSON to ``path``."""
        self.tracer.export(path, process_name=process_name)


#: The disabled singleton: what components see when nobody asked for
#: observability.  Shared, immutable, and free to hold.
OBS_OFF = Observability(enabled=False)
