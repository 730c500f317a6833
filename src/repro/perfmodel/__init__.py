"""Analytic performance model ``P(c, s)``.

The paper's evaluation sweeps thousands of (benchmark, cache, Slice)
configurations through SSim on a cluster (Sections 5.5-5.10).  A pure
Python cycle-level simulator cannot sweep that space in reasonable time,
so this package provides the documented substitution: a first-order
analytic pipeline model, driven by the same per-benchmark profiles as the
trace generator and cross-validated against the cycle-level simulator on
anchor configurations (see ``tests/integration/test_model_vs_sim.py``).

All economics (utility, markets, efficiency comparisons) consume only
``P(c, s)`` tables, so the model is the single calibration point for the
quantitative reproduction of Tables 4-7 and Figures 12-17.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AnalyticModel": ".model",
    "CACHE_GRID_KB": ".model",
    "SLICE_GRID": ".model",
    "performance": ".model",
    "performance_grid": ".model",
    "profile_key": ".model",
    # submodules
    "model": ".model",
})
