"""Virtual Machine and VCore specifications.

Paper Figure 1: a VM is composed of one or more VCores; each VCore is a
set of Slices plus L2 Cache Banks.  ``VMInstance`` records a placed VM's
tiles so the hypervisor can tear it down or reconfigure it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class VCoreSpec:
    """Requested shape of one VCore."""

    num_slices: int
    l2_cache_kb: float

    def __post_init__(self) -> None:
        if not 1 <= self.num_slices <= 8:
            raise ValueError("Slice count must be in [1, 8] (Equation 3)")
        if not 0 <= self.l2_cache_kb <= 8192:
            raise ValueError("L2 must be in [0, 8192] KB (Equation 3)")

    @property
    def num_banks(self) -> int:
        return int(round(self.l2_cache_kb / 64.0))


@dataclass(frozen=True)
class VMSpec:
    """Requested shape of one VM: a list of VCores plus beyond-core
    resources (DRAM/disk are priced but not micro-modelled)."""

    vcores: Tuple[VCoreSpec, ...]
    dram_gb: float = 1.7
    disk_gb: float = 160.0

    def __post_init__(self) -> None:
        if not self.vcores:
            raise ValueError("a VM needs at least one VCore")
        if self.dram_gb <= 0 or self.disk_gb < 0:
            raise ValueError("invalid beyond-core resources")

    @property
    def total_slices(self) -> int:
        return sum(vc.num_slices for vc in self.vcores)

    @property
    def total_banks(self) -> int:
        return sum(vc.num_banks for vc in self.vcores)

    @classmethod
    def uniform(cls, num_vcores: int, slices_per_vcore: int,
                cache_kb_per_vcore: float, **kwargs) -> "VMSpec":
        if num_vcores < 1:
            raise ValueError("need at least one VCore")
        vc = VCoreSpec(num_slices=slices_per_vcore,
                       l2_cache_kb=cache_kb_per_vcore)
        return cls(vcores=(vc,) * num_vcores, **kwargs)


@dataclass
class VMInstance:
    """A placed VM: its spec plus the fabric tiles of each VCore."""

    vm_id: str
    spec: VMSpec
    #: per-VCore: (slice tiles, bank tiles)
    placements: List[Tuple[List[int], List[int]]] = field(default_factory=list)

    @property
    def num_vcores(self) -> int:
        return len(self.spec.vcores)

    def vcore_owner_tag(self, index: int) -> str:
        return f"{self.vm_id}/vcore{index}"
