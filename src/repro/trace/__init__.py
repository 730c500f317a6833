"""Trace substrate.

The paper drives SSim with full-system traces generated by the Alpha build
of GEM5 across SPEC CINT2006, an Apache static web-serving workload, and a
subset of PARSEC (Section 5.2).  We do not have those proprietary traces or
the GEM5 toolchain in this environment, so this package provides the
documented substitution: a synthetic trace generator whose per-benchmark
statistical profiles (dependence-distance distribution, branch behaviour,
memory reuse) are calibrated to reproduce each benchmark's published
micro-architectural response (Figures 12 and 13).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Trace": ".records",
    "TraceMetadata": ".records",
    "BenchmarkProfile": ".profiles",
    "PROFILES": ".profiles",
    "all_benchmarks": ".profiles",
    "get_profile": ".profiles",
    "spec_benchmarks": ".profiles",
    "parsec_benchmarks": ".profiles",
    "SyntheticTraceGenerator": ".generator",
    "generate_trace": ".generator",
    "PhasedProfile": ".phases",
    "gcc_phases": ".phases",
    "get_workload": ".materialize",
    "workload_key": ".materialize",
    "workload_cache_stats": ".materialize:cache_stats",
    # submodules
    "generator": ".generator",
    # The submodule: re-exporting its ``materialize()`` function would
    # shadow it.
    "materialize": ".materialize",
    "phases": ".phases",
    "profiles": ".profiles",
    "records": ".records",
})
