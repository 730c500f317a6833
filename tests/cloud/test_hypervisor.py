"""Tests for VM specs and the hypervisor."""

import pytest

from repro.cloud.fabric import AllocationError, Fabric
from repro.cloud.hypervisor import Hypervisor
from repro.cloud.vm import VCoreSpec, VMSpec


class TestVMSpec:
    def test_uniform_builder(self):
        spec = VMSpec.uniform(num_vcores=2, slices_per_vcore=3,
                              cache_kb_per_vcore=256)
        assert spec.total_slices == 6
        assert spec.total_banks == 8

    def test_equation3_enforced(self):
        with pytest.raises(ValueError):
            VCoreSpec(num_slices=9, l2_cache_kb=0)
        with pytest.raises(ValueError):
            VCoreSpec(num_slices=1, l2_cache_kb=10_000)

    def test_empty_vm_rejected(self):
        with pytest.raises(ValueError):
            VMSpec(vcores=())


class TestHypervisor:
    def test_claims_home_slice(self):
        hv = Hypervisor(Fabric(width=8, height=4))
        assert hv.fabric.owner_of(hv.home_slice) == "hypervisor"

    def test_place_and_teardown(self):
        hv = Hypervisor(Fabric(width=16, height=4))
        spec = VMSpec.uniform(2, 2, 128)
        instance = hv.place(spec)
        assert instance is not None
        assert len(instance.placements) == 2
        for slices, banks in instance.placements:
            assert len(slices) == 2
            assert len(banks) == 2
        occupied = hv.fabric.utilization()
        hv.teardown(instance.vm_id)
        assert hv.fabric.utilization() < occupied
        assert hv.stats.vms_placed == 1
        assert hv.stats.vms_torn_down == 1

    def test_rejection_rolls_back(self):
        hv = Hypervisor(Fabric(width=4, height=1))
        big = VMSpec.uniform(4, 1, 0)
        assert hv.place(big) is None
        assert hv.stats.vms_rejected == 1
        # Nothing leaked: a small VM still fits.
        assert hv.place(VMSpec.uniform(1, 1, 64)) is not None

    def test_bank_distances_reported(self):
        hv = Hypervisor(Fabric(width=16, height=4))
        instance = hv.place(VMSpec.uniform(1, 2, 256))
        distances = hv.bank_distances(instance, 0)
        assert len(distances) == 4
        assert all(d >= 1 for d in distances)

    def test_resize_vcore_charges_costs(self):
        hv = Hypervisor(Fabric(width=16, height=4))
        instance = hv.place(VMSpec.uniform(1, 2, 128))
        cost = hv.resize_vcore(instance.vm_id, 0,
                               VCoreSpec(num_slices=4, l2_cache_kb=128))
        assert cost.cycles == 500  # Slice-only change
        cost = hv.resize_vcore(instance.vm_id, 0,
                               VCoreSpec(num_slices=4, l2_cache_kb=512))
        assert cost.cycles == 10_000  # cache change
        assert instance.spec.vcores[0].num_slices == 4
        assert hv.stats.reconfigurations == 2

    def test_resize_bank_shortfall_restores_placement(self):
        hv = Hypervisor(Fabric(width=4, height=1))  # two banks
        instance = hv.place(VMSpec.uniform(1, 1, 64))
        owners = hv.fabric.snapshot_owners()
        placements = list(instance.placements)
        with pytest.raises(AllocationError):
            hv.resize_vcore(instance.vm_id, 0,
                            VCoreSpec(num_slices=1, l2_cache_kb=192))
        assert hv.fabric.snapshot_owners() == owners
        assert instance.placements == placements
        assert instance.spec.vcores[0].l2_cache_kb == 64
        assert hv.stats.reconfigurations == 0

    def test_resize_unknown_vm(self):
        hv = Hypervisor(Fabric(width=8, height=2))
        with pytest.raises(KeyError):
            hv.resize_vcore("vm99", 0, VCoreSpec(1, 0))

    def test_teardown_unknown_vm(self):
        hv = Hypervisor(Fabric(width=8, height=2))
        with pytest.raises(KeyError):
            hv.teardown("vm99")

    def test_free_capacity_accounting(self):
        hv = Hypervisor(Fabric(width=8, height=2))
        before = hv.free_capacity()
        hv.place(VMSpec.uniform(1, 2, 64))
        after = hv.free_capacity()
        assert after["slices"] == before["slices"] - 2
        assert after["banks"] == before["banks"] - 1
