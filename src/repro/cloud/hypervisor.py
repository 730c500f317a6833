"""The hypervisor (paper Section 3.8).

Runs time-sliced on single-Slice VCores and reconfigures client VCores by
rewriting interconnect and protection state.  It places VMs on the
fabric, tears them down, and resizes VCores, charging the paper's
reconfiguration costs (register flush over the SON; L2 flush to memory).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cloud.fabric import AllocationError, Fabric, TileKind
from repro.cloud.vm import VCoreSpec, VMInstance, VMSpec
from repro.core.reconfig import ReconfigCost, ReconfigurationEngine


@dataclass
class HypervisorStats:
    vms_placed: int = 0
    vms_rejected: int = 0
    vms_torn_down: int = 0
    reconfigurations: int = 0
    reconfiguration_cycles: int = 0


class Hypervisor:
    """Fabric manager: placement, teardown, and VCore reconfiguration."""

    def __init__(self, fabric: Optional[Fabric] = None,
                 reconfig: Optional[ReconfigurationEngine] = None):
        self.fabric = fabric or Fabric()
        self.reconfig = reconfig or ReconfigurationEngine()
        self._vms: Dict[str, VMInstance] = {}
        self._ids = itertools.count()
        self.stats = HypervisorStats()
        # The hypervisor itself occupies one single-Slice VCore (paper:
        # "we propose having the hypervisor execute only on single-Slice
        # VCores").
        home = self.fabric.find_contiguous_slices(1)
        if home is None:
            raise AllocationError("fabric too small for the hypervisor")
        self.fabric.claim(home, owner="hypervisor")
        self.home_slice = home[0]

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def place(self, spec: VMSpec) -> Optional[VMInstance]:
        """Place a VM; ``None`` if capacity is insufficient."""
        vm_id = f"vm{next(self._ids)}"
        instance = VMInstance(vm_id=vm_id, spec=spec)
        claimed: List[Tuple[str, List[int]]] = []
        try:
            for idx, vcore in enumerate(spec.vcores):
                tag = instance.vcore_owner_tag(idx)
                slices = self.fabric.find_contiguous_slices(vcore.num_slices)
                if slices is None:
                    raise AllocationError("no contiguous Slice run")
                self.fabric.claim(slices, owner=tag)
                claimed.append((tag, slices))
                banks = self.fabric.find_nearest_banks(
                    slices[0], vcore.num_banks
                )
                self.fabric.claim(banks, owner=tag)
                claimed.append((tag, banks))
                instance.placements.append((slices, banks))
        except AllocationError:
            for tag, _ in claimed:
                self.fabric.release(tag)
            self.stats.vms_rejected += 1
            return None
        self._vms[vm_id] = instance
        self.stats.vms_placed += 1
        return instance

    def teardown(self, vm_id: str) -> None:
        instance = self._vms.pop(vm_id, None)
        if instance is None:
            raise KeyError(f"unknown VM {vm_id!r}")
        for idx in range(instance.num_vcores):
            self.fabric.release(instance.vcore_owner_tag(idx))
        self.stats.vms_torn_down += 1

    def bank_distances(self, instance: VMInstance,
                       vcore_index: int) -> List[int]:
        """Network distances from a VCore's anchor Slice to its banks."""
        slices, banks = instance.placements[vcore_index]
        anchor = slices[0]
        return [self.fabric.mesh.distance(anchor, b) for b in banks]

    # ------------------------------------------------------------------
    # reconfiguration
    # ------------------------------------------------------------------

    def resize_vcore(self, vm_id: str, vcore_index: int,
                     new_spec: VCoreSpec) -> ReconfigCost:
        """Resize one VCore in place, charging the paper's costs."""
        instance = self._vms.get(vm_id)
        if instance is None:
            raise KeyError(f"unknown VM {vm_id!r}")
        if not 0 <= vcore_index < instance.num_vcores:
            raise IndexError("VCore index out of range")
        old_spec = instance.spec.vcores[vcore_index]
        cost = self.reconfig.cost(
            old_cache_kb=old_spec.l2_cache_kb,
            old_slices=old_spec.num_slices,
            new_cache_kb=new_spec.l2_cache_kb,
            new_slices=new_spec.num_slices,
        )
        tag = instance.vcore_owner_tag(vcore_index)
        self.fabric.release(tag)
        try:
            slices = self.fabric.find_contiguous_slices(new_spec.num_slices)
            if slices is None:
                raise AllocationError("no room for the resized VCore")
            self.fabric.claim(slices, owner=tag)
            banks = self.fabric.find_nearest_banks(slices[0],
                                                   new_spec.num_banks)
            self.fabric.claim(banks, owner=tag)
        except AllocationError:
            # Roll back: re-place the old VCore on its exact tiles.
            old_slices, old_banks = instance.placements[vcore_index]
            self.fabric.release(tag)
            self.fabric.claim(old_slices + old_banks, owner=tag)
            raise
        instance.placements[vcore_index] = (slices, banks)
        vcores = list(instance.spec.vcores)
        vcores[vcore_index] = new_spec
        instance.spec = VMSpec(
            vcores=tuple(vcores),
            dram_gb=instance.spec.dram_gb,
            disk_gb=instance.spec.disk_gb,
        )
        self.stats.reconfigurations += 1
        self.stats.reconfiguration_cycles += cost.cycles
        return cost

    def defragment(self) -> Dict[str, int]:
        """Repack every VCore to eliminate fragmentation.

        Paper Section 3: "all Slices are interchangeable and equally
        connected therefore fixing fragmentation problems is as simple as
        rescheduling Slices to VCores."  Every VCore is re-placed from a
        clean fabric, largest first; a VCore whose Slice tiles move pays
        the Register Flush (500 cycles), and one whose bank tiles move
        pays the L2 flush (10 000 cycles).

        Returns ``{"moved": n, "cycles": total_reconfiguration_cycles}``.
        """
        # Snapshot and release everything except the hypervisor's Slice.
        old_placements: Dict[Tuple[str, int], Tuple[List[int], List[int]]] = {}
        for vm_id, instance in self._vms.items():
            for idx in range(instance.num_vcores):
                old_placements[(vm_id, idx)] = instance.placements[idx]
                self.fabric.release(instance.vcore_owner_tag(idx))

        # Re-place largest VCores first (hardest to fit).
        order = sorted(
            (
                (vm_id, idx, self._vms[vm_id].spec.vcores[idx])
                for vm_id, idx in old_placements
            ),
            key=lambda item: -(item[2].num_slices + item[2].num_banks),
        )
        moved = 0
        cycles = 0
        for vm_id, idx, vcore in order:
            tag = self._vms[vm_id].vcore_owner_tag(idx)
            slices = self.fabric.find_contiguous_slices(vcore.num_slices)
            if slices is None:
                raise AllocationError(
                    "defragmentation failed to re-place a VCore; fabric "
                    "capacity must have been exceeded"
                )
            self.fabric.claim(slices, owner=tag)
            banks = self.fabric.find_nearest_banks(slices[0],
                                                   vcore.num_banks)
            self.fabric.claim(banks, owner=tag)
            self._vms[vm_id].placements[idx] = (slices, banks)
            old_slices, old_banks = old_placements[(vm_id, idx)]
            if set(banks) != set(old_banks):
                moved += 1
                cycles += self.reconfig.cache_flush_cycles
            elif set(slices) != set(old_slices):
                moved += 1
                cycles += self.reconfig.slice_change_cycles
        self.stats.reconfigurations += moved
        self.stats.reconfiguration_cycles += cycles
        return {"moved": moved, "cycles": cycles}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def active_vms(self) -> List[str]:
        return sorted(self._vms)

    def instance(self, vm_id: str) -> VMInstance:
        return self._vms[vm_id]

    def free_capacity(self) -> Dict[str, int]:
        return {
            "slices": self.fabric.free_count(TileKind.SLICE),
            "banks": self.fabric.free_count(TileKind.BANK),
        }
