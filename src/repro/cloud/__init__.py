"""IaaS cloud layer: fabric, hypervisor, and the market loop.

The Sharing Architecture targets IaaS providers (paper Sections 1-2, 4):
a hypervisor running on single-Slice VCores reconfigures the fabric, and
the cloud management software is one loop, :class:`AllocationService`.
It prices Slices and Cache Banks, admits each customer with the
configuration that maximises their utility at the current prices (the
choice a Section 4 meta-program makes), places their VCores on the
fabric, and reprices after events.
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
    # submodules
    "arena": ".arena",
    "errors": ".errors",
    "fabric": ".fabric",
    "hypervisor": ".hypervisor",
    "resilience": ".resilience",
    "service": ".service",
    "shards": ".shards",
    "vm": ".vm",
})
