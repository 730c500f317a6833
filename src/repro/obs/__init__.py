"""repro.obs: zero-dependency instrumentation for the whole stack.

Three pieces (see DESIGN.md "Observability"):

* :mod:`repro.obs.registry` - a hierarchical Counter/Gauge/Timer/
  Histogram registry that core, cache, network and engine components
  attach to;
* :mod:`repro.obs.tracer` - a bounded ring-buffer event tracer that
  exports Chrome ``trace_event`` JSON for ``chrome://tracing`` /
  Perfetto;
* :mod:`repro.obs.profiling` - the trace clock (``now_us``).

:class:`Observability` (:mod:`repro.obs.bundle`) bundles one registry and
one tracer and is what flows through constructor ``obs=`` parameters.
:data:`OBS_OFF` is the disabled singleton: all its instruments are
module-level null objects, so un-instrumented runs pay (at most) one
no-op call per hook and are bit-identical to pre-observability
behaviour.

Quickstart::

    from repro.obs import Observability

    obs = Observability(trace=True)
    result = simulate(trace, num_slices=4, obs=obs)
    obs.export_trace("sim.trace.json")   # open in ui.perfetto.dev
    print(obs.snapshot()["sim.core.rob.dispatched"])
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Counter": ".registry",
    "DEFAULT_CAPACITY": ".tracer",
    "EventTracer": ".tracer",
    "Gauge": ".registry",
    "Histogram": ".registry",
    "NULL_REGISTRY": ".registry",
    "NULL_SCOPE": ".registry",
    "NULL_TRACER": ".tracer",
    "NullRegistry": ".registry",
    "NullScope": ".registry",
    "NullTracer": ".tracer",
    "OBS_OFF": ".bundle",
    "Observability": ".bundle",
    "Registry": ".registry",
    "Scope": ".registry",
    "Timer": ".registry",
    "now_us": ".profiling",
    "summarize": ".registry",
    # submodules
    "bundle": ".bundle",
    "profiling": ".profiling",
    "registry": ".registry",
    "tracer": ".tracer",
})
