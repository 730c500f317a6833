"""Tests for the manycore fabric."""

import pytest

from repro.cloud.fabric import AllocationError, Fabric, TileKind


class TestLayout:
    def test_default_alternating_columns(self):
        fabric = Fabric(width=4, height=2)
        assert fabric.num_slices == 4
        assert fabric.num_banks == 4

    def test_custom_bank_columns(self):
        fabric = Fabric(width=4, height=1, bank_columns=[3])
        assert fabric.num_slices == 3
        assert fabric.num_banks == 1

    def test_hundreds_of_tiles(self):
        """Paper: 'A full chip will have 100's of Slices and Cache
        Banks.'"""
        fabric = Fabric(width=32, height=16)
        assert fabric.num_slices >= 100
        assert fabric.num_banks >= 100


class TestAllocation:
    def test_contiguous_slice_run(self):
        fabric = Fabric(width=8, height=2)
        run = fabric.find_contiguous_slices(3)
        assert run is not None and len(run) == 3
        ys = {fabric.mesh.coords(n)[1] for n in run}
        assert len(ys) == 1  # single row

    def test_claim_and_release(self):
        fabric = Fabric(width=8, height=2)
        run = fabric.find_contiguous_slices(2)
        fabric.claim(run, owner="vm0")
        assert all(fabric.owner_of(n) == "vm0" for n in run)
        assert fabric.owned_by("vm0") == sorted(run)
        freed = fabric.release("vm0")
        assert sorted(freed) == sorted(run)
        assert all(fabric.is_free(n) for n in run)

    def test_double_claim_rejected(self):
        fabric = Fabric(width=8, height=2)
        run = fabric.find_contiguous_slices(2)
        fabric.claim(run, owner="vm0")
        with pytest.raises(AllocationError):
            fabric.claim(run, owner="vm1")

    def test_nearest_banks_sorted_by_distance(self):
        fabric = Fabric(width=8, height=4)
        anchor = fabric.tiles(TileKind.SLICE)[0]
        banks = fabric.find_nearest_banks(anchor, 4)
        distances = [fabric.mesh.distance(anchor, b) for b in banks]
        assert distances == sorted(distances)

    def test_nearest_banks_capacity_error(self):
        fabric = Fabric(width=4, height=1)
        anchor = fabric.tiles(TileKind.SLICE)[0]
        with pytest.raises(AllocationError):
            fabric.find_nearest_banks(anchor, 100)

    def test_no_contiguous_run_returns_none(self):
        fabric = Fabric(width=4, height=1)  # two slice tiles per row
        assert fabric.find_contiguous_slices(3) is None

    def test_utilization(self):
        fabric = Fabric(width=4, height=1)
        assert fabric.utilization() == 0.0
        run = fabric.find_contiguous_slices(1)
        fabric.claim(run, owner="x")
        assert fabric.utilization() == pytest.approx(0.25)


def state(fabric):
    """Everything a claim may change, through the public API."""
    return (
        fabric.snapshot_owners(),
        [fabric.owner_of(n) for n in range(fabric.mesh.num_nodes)],
        fabric.free_count(TileKind.SLICE),
        fabric.free_count(TileKind.BANK),
        fabric.max_free_run(),
        fabric.utilization(),
    )


class TestClaimIsAtomic:
    """A rejected claim raises ``AllocationError`` and changes nothing."""

    def test_duplicate_bank(self):
        fabric = Fabric(width=8, height=2)
        bank = fabric.tiles(TileKind.BANK)[0]
        before = state(fabric)
        with pytest.raises(AllocationError):
            fabric.claim([bank, bank], "a")
        assert state(fabric) == before
        assert fabric.release("a") == []

    def test_node_off_the_fabric(self):
        fabric = Fabric(width=8, height=2)
        before = state(fabric)
        with pytest.raises(AllocationError):
            fabric.claim([3, 999], "c")
        assert fabric.owner_of(999) is None
        assert state(fabric) == before
        with pytest.raises(AllocationError):
            fabric.claim([-1], "c")
        assert state(fabric) == before

    def test_duplicate_slice(self):
        fabric = Fabric(width=8, height=2)
        run = fabric.find_contiguous_slices(3)
        before = state(fabric)
        with pytest.raises(AllocationError):
            fabric.claim(run + run[:1], "d")
        assert state(fabric) == before
        assert fabric.find_contiguous_slices(3) == run

    def test_kind_rejects_nodes_off_the_fabric(self):
        fabric = Fabric(width=8, height=2)
        for node in (-1, fabric.mesh.num_nodes):
            with pytest.raises(KeyError):
                fabric.kind(node)
