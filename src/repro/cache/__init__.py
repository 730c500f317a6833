"""Cache hierarchy substrate.

The Sharing Architecture memory system (paper Sections 3.5-3.6 and
Table 3): the geometry and timing of the per-Slice 16 KB 2-way L1 I/D
caches with a 3-cycle hit and of the 64 KB 4-way L2 Cache Banks with a
hit delay of ``distance * 2 + 4`` (the production core in
:mod:`repro.core.batched` models them), plus the MSI directory at the
L2 for inter-VCore coherence.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "L1_HIT_LATENCY": ".l1",
    "l2_hit_latency": ".l2",
    "Directory": ".coherence",
    "CoherenceState": ".coherence",
    "CoherenceStats": ".coherence",
    # submodules
    "coherence": ".coherence",
    "l1": ".l1",
    "l2": ".l2",
})
