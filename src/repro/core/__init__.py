"""The Sharing Architecture core: Slices, VCores, and the SSim simulator.

This package is the reproduction of the paper's primary contribution
(Sections 3 and 5.2): a fine-grain composable architecture where a Virtual
Core (VCore) is synthesised from one to eight Slices plus zero or more L2
Cache Banks, and SSim, the trace-driven cycle-level simulator that models
every subsystem - fetch, two-stage rename, issue, execution, memory,
commit, and the three on-chip networks.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "SliceConfig": ".config",
    "CacheLevelConfig": ".config",
    "CacheConfig": ".config",
    "VCoreConfig": ".config",
    "SimConfig": ".config",
    "BimodalPredictor": ".branch",
    "BranchTargetBuffer": ".branch",
    "BranchUnit": ".branch",
    "VCore": ".vcore",
    "SharingSimulator": ".simulator",
    "SimResult": ".simulator",
    "ReconfigurationEngine": ".reconfig",
    "ReconfigCost": ".reconfig",
    # submodules
    "batched": ".batched",
    "branch": ".branch",
    "config": ".config",
    "dyninst": ".dyninst",
    "issue": ".issue",
    "lsq": ".lsq",
    "multivcore": ".multivcore",
    "reconfig": ".reconfig",
    "rename": ".rename",
    "rob": ".rob",
    "simulator": ".simulator",
    "stats": ".stats",
    "vcore": ".vcore",
})
