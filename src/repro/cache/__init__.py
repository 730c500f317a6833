"""Cache hierarchy substrate.

Models the Sharing Architecture memory system (paper Sections 3.5-3.6 and
Table 3): per-Slice 16 KB 2-way L1 I/D caches with a 3-cycle hit, a sea of
64 KB 4-way L2 Cache Banks reachable over the switched network with a hit
delay of ``distance * 2 + 4``, low-order cache-line interleaving across
banks, non-blocking misses, a small store buffer per Slice, and an MSI
directory at the L2 for inter-VCore coherence.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "SetAssociativeCache": ".setassoc",
    "AccessResult": ".setassoc",
    "L1Cache": ".l1",
    "L1_HIT_LATENCY": ".l1",
    "L2Bank": ".l2",
    "BankedL2": ".l2",
    "l2_hit_latency": ".l2",
    "StoreBuffer": ".storebuffer",
    "MSHRFile": ".mshr",
    "Directory": ".coherence",
    "CoherenceState": ".coherence",
    "CoherenceStats": ".coherence",
    "CacheHierarchy": ".hierarchy",
    "MemoryAccessOutcome": ".hierarchy",
    # submodules
    "coherence": ".coherence",
    "hierarchy": ".hierarchy",
    "l1": ".l1",
    "l2": ".l2",
    "mshr": ".mshr",
    "setassoc": ".setassoc",
    "storebuffer": ".storebuffer",
})
