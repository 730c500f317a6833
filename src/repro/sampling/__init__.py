"""Sampled simulation (SMARTS-style interval sampling) for SSim.

The paper's SSim runs full-length GEM5 traces; at cycle-level detail
that is the dominant cost of every figure.  This package trades bounded,
*reported* error for wall-clock speedup: functional fast-forward keeps
micro-architectural state warm between short detailed windows, and the
per-window CPI variance yields a confidence interval on the
extrapolated IPC.

Public surface:

* :class:`SamplingConfig` / :class:`SamplingPolicy` / :class:`Schedule`
  - plan which trace regions run in detail;
* :func:`simulate_sampled` - execute the plan on the structure-of-arrays
  core (:meth:`~repro.core.batched.BatchedSimulator.run_sampled`) and
  extrapolate a :class:`~repro.core.simulator.SimResult`;
* :data:`DEFAULT_SAMPLING` - the default policy used by engine and CLI
  ``--sampling`` flags.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "DEFAULT_SAMPLING": ".policy",
    "SamplingConfig": ".policy",
    "SamplingPolicy": ".policy",
    "SamplingSummary": ".sampled",
    "Schedule": ".policy",
    "Window": ".policy",
    "simulate_sampled": ".sampled",
    # submodules
    "policy": ".policy",
    "sampled": ".sampled",
})
