"""Experiment harness: one runner per paper table and figure.

Each module follows the :mod:`repro.experiments.base` protocol: ``NAME``,
a pure ``run(..., engine=None)`` returning a frozen
:class:`~repro.experiments.base.ExperimentResult` subclass, a
``render(result)`` printer and a thin ``main()``.  Passing a
:class:`~repro.engine.core.SweepEngine` changes no number: the analytic
artefacts read the model directly and take only the engine's ``obs``.
The benchmark suite in ``benchmarks/`` wraps these runners with
pytest-benchmark so every artefact is regenerated and timed by
``pytest benchmarks/ --benchmark-only``.

Index (see DESIGN.md section 4):

=========  ==================================================
fig10/11   Slice area decomposition (with/without 64 KB L2)
fig12      VCore scalability, 1-8 Slices
fig13      cache sensitivity, 0 KB-8 MB
tab4       optimal configs for perf^k/area
fig14      utility surfaces for gcc/bzip under Utility1/2
tab6       optimal configs in Markets 1-3 x Utilities 1-3
fig15      utility gain vs best static fixed architecture
fig16      utility gain vs heterogeneous multicore
fig17      datacenter big/small core mix study
tab7       gcc dynamic phases, dyn vs static gains
tab8       related-work taxonomy
parsec     PARSEC on 4 VCores with directory coherence (§3.5, §5.3)
ablation   operand-network channel count (Section 5.1)
datacenter 10k+ tenant market allocation at scale (extension)
stream     event-driven streaming allocation service (extension)
=========  ==================================================
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ablation_son": ".ablation_son",
    "area_decomposition": ".area_decomposition",
    "base": ".base",
    "cache_sensitivity": ".cache_sensitivity",
    "datacenter_mix": ".datacenter_mix",
    "datacenter_scale": ".datacenter_scale",
    "datacenter_stream": ".datacenter_stream",
    "energy_delay": ".energy_delay",
    "hetero_comparison": ".hetero_comparison",
    "markets": ".markets",
    "optima": ".optima",
    "parsec_multivcore": ".parsec_multivcore",
    "phases": ".phases",
    "runner": ".runner",
    "scalability": ".scalability",
    "static_comparison": ".static_comparison",
    "taxonomy": ".taxonomy",
    "utility_surfaces": ".utility_surfaces",
})
