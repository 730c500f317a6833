"""IaaS cloud layer: fabric, hypervisor, scheduler, and customer tooling.

The Sharing Architecture targets IaaS providers (paper Sections 1-2, 4):
a hypervisor running on single-Slice VCores reconfigures the fabric;
Cloud management software schedules customer VMs onto Slices and Cache
Banks; customers steer their purchases with meta-programs or auto-tuners.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "Fabric": ".fabric",
    "TileKind": ".fabric",
    "AllocationError": ".fabric",
    "ServiceError": ".errors",
    "UnknownTenantError": ".errors",
    "DuplicateTenantError": ".errors",
    "EventValidationError": ".errors",
    "InvariantViolation": ".errors",
    "SimulatedCrash": ".errors",
    "FaultEvent": ".resilience",
    "FaultInjector": ".resilience",
    "FaultPlan": ".resilience",
    "verify_invariants": ".resilience",
    "AllocationService": ".service",
    "TenantRequest": ".service",
    "Event": ".service",
    "AdmissionResult": ".service",
    "StepResult": ".service",
    "StreamSummary": ".service",
    "VCoreSpec": ".vm",
    "VMSpec": ".vm",
    "VMInstance": ".vm",
    "Hypervisor": ".hypervisor",
    "CloudScheduler": ".scheduler",
    "CustomerRequest": ".scheduler",
    "Placement": ".scheduler",
    "AutoTuner": ".autotuner",
    "TuningResult": ".autotuner",
    "MetaProgram": ".metaprogram",
    "PriceQuote": ".metaprogram",
    # submodules
    "arena": ".arena",
    "autotuner": ".autotuner",
    "errors": ".errors",
    "fabric": ".fabric",
    "hypervisor": ".hypervisor",
    "metaprogram": ".metaprogram",
    "resilience": ".resilience",
    "scheduler": ".scheduler",
    "service": ".service",
    "shards": ".shards",
    "vm": ".vm",
})
