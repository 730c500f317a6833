"""Comparison baselines.

The paper evaluates the Sharing Architecture against (a) the best static
fixed multicore (Figure 15), (b) a heterogeneous multicore tuned per
utility function (Figure 16), and (c) a datacenter built from a static
mix of big and small cores (Figure 17, following Guevara et al. [18]).
This package holds (c); the reference configurations of (a) and (b) come
from :class:`repro.economics.comparison.MarketEfficiencyComparison`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CoreType": ".heterogeneous",
    "HeterogeneousDatacenter": ".heterogeneous",
    "MixPoint": ".heterogeneous",
    "BIG_CORE": ".heterogeneous",
    "SMALL_CORE": ".heterogeneous",
    # submodules
    "heterogeneous": ".heterogeneous",
})
