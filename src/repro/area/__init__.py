"""Area model.

The paper implements a Slice in synthesizable Verilog, places and routes
it with the Synopsys flow in TSMC 45 nm, and sizes caches with CACTI
(Section 5.1).  Figures 10 and 11 publish the resulting area decomposition
with and without a 64 KB L2 bank.  We cannot run a Verilog flow here, so
this package encodes the published decomposition directly and supplies a
CACTI-like analytic estimator for cache arrays; all downstream economics
consume only the *relative* areas, which is exactly what the paper's
Figures 10-11 provide.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "SliceComponent": ".components",
    "SHARING_OVERHEAD_COMPONENTS": ".components",
    "FIG10_PERCENTAGES": ".components",
    "CactiLite": ".cacti",
    "AreaModel": ".model",
    # submodules
    "cacti": ".cacti",
    "components": ".components",
    "energy": ".energy",
    "model": ".model",
})
