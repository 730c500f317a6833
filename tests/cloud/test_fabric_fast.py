"""Equivalence tests for the indexed fabric fast paths.

The fabric answers placement queries from indexed structures (per-row
free bytes + a row-max segment tree for ``find_contiguous_slices``;
per-anchor bank orders, shared by ``empty_like()`` siblings, filtered
through a free-tile mask for ``find_nearest_banks``).  These tests pin
them to brute-force reference scans built on the public API only: over
thousands of randomized claim/release operations, every query must
return the exact node list the old linear scan would have, and the O(1)
``free_count`` bookkeeping must match a full recount.
"""

import random

import pytest

from repro.cloud.fabric import AllocationError, Fabric, TileKind


def ref_find_contiguous(fabric, count):
    """Reference: scan rows left-to-right in slice-column order."""
    slice_cols = sorted({fabric.mesh.coords(n)[0]
                         for n in fabric.tiles(TileKind.SLICE)})
    for y in range(fabric.mesh.height):
        run = []
        for x in slice_cols:
            node = fabric.mesh.node_at(x, y)
            if fabric.is_free(node):
                run.append(node)
                if len(run) == count:
                    return run
            else:
                run = []
    return None


def ref_nearest_banks(fabric, anchor, count):
    """Reference: sort every free bank by (distance, node id)."""
    free = [n for n in fabric.tiles(TileKind.BANK) if fabric.is_free(n)]
    if len(free) < count:
        return None
    free.sort(key=lambda n: (fabric.mesh.distance(anchor, n), n))
    return free[:count]


def ref_free_counts(fabric):
    return {
        kind: sum(1 for n in fabric.tiles(kind) if fabric.is_free(n))
        for kind in (TileKind.SLICE, TileKind.BANK)
    }


def fully_free(fabric):
    return (fabric.utilization() == 0.0
            and fabric.free_count(TileKind.SLICE) == fabric.num_slices
            and fabric.free_count(TileKind.BANK) == fabric.num_banks)


@pytest.mark.parametrize("width,height,bank_columns,seed", [
    pytest.param(16, 8, None, 1, id="16-8-1"),
    pytest.param(32, 16, None, 2, id="32-16-2"),
    # odd width: unbalanced slice/bank columns
    pytest.param(17, 5, None, 3, id="17-5-3"),
    # banks on the edge and side by side
    pytest.param(9, 6, [0, 3, 4], 4, id="9-6-banks034-4"),
])
def test_randomized_equivalence(width, height, bank_columns, seed):
    template = Fabric(width=width, height=height, bank_columns=bank_columns)
    # Siblings share the template's bank orders; the fresh fabric builds
    # its own.  Operations interleave across all of them, and every so
    # often a new sibling opens from a fabric that may be occupied.
    fabrics = [template.empty_like(),
               Fabric(width=width, height=height, bank_columns=bank_columns)]
    held = [[], []]
    rng = random.Random(seed)
    next_id = 0
    for step in range(900):
        if step % 300 == 150:
            sibling = fabrics[rng.randrange(len(fabrics))].empty_like()
            assert fully_free(sibling)
            fabrics.append(sibling)
            held.append([])
        i = rng.randrange(len(fabrics))
        fabric, owners = fabrics[i], held[i]
        op = rng.random()
        if op < 0.45:
            count = rng.randint(1, 6)
            got = fabric.find_contiguous_slices(count)
            assert got == ref_find_contiguous(fabric, count)
            if got is not None:
                owner = f"vm{next_id}"
                next_id += 1
                fabric.claim(got, owner)
                owners.append(owner)
        elif op < 0.75:
            # Any tile may anchor, bank tiles included.
            anchor = rng.randrange(fabric.mesh.num_nodes)
            count = rng.randint(1, 8)
            want = ref_nearest_banks(fabric, anchor, count)
            if want is None:
                with pytest.raises(AllocationError):
                    fabric.find_nearest_banks(anchor, count)
                continue
            got = fabric.find_nearest_banks(anchor, count)
            assert got == want
            if rng.random() < 0.5:
                owner = f"vm{next_id}"
                next_id += 1
                fabric.claim(got, owner)
                owners.append(owner)
        elif owners:
            owner = owners.pop(rng.randrange(len(owners)))
            fabric.release(owner)
        if step % 50 == 0:
            want = ref_free_counts(fabric)
            assert fabric.free_count(TileKind.SLICE) == want[TileKind.SLICE]
            assert fabric.free_count(TileKind.BANK) == want[TileKind.BANK]
    # Drain and verify every fabric returns to fully free.
    for fabric, owners in zip(fabrics, held):
        for owner in owners:
            fabric.release(owner)
        assert fully_free(fabric)


def test_full_fabric_has_no_runs():
    fabric = Fabric(width=8, height=4)
    while (run := fabric.find_contiguous_slices(1)) is not None:
        fabric.claim(run, f"vm{fabric.mesh.coords(run[0])}")
    assert fabric.find_contiguous_slices(1) is None
    assert fabric.free_count(TileKind.SLICE) == 0


def test_free_count_tracks_claim_release():
    fabric = Fabric(width=8, height=4)
    run = fabric.find_contiguous_slices(3)
    banks = fabric.find_nearest_banks(run[0], 2)
    fabric.claim(run + banks, "vm0")
    assert fabric.free_count(TileKind.SLICE) == fabric.num_slices - 3
    assert fabric.free_count(TileKind.BANK) == fabric.num_banks - 2
    fabric.release("vm0")
    assert fabric.free_count(TileKind.SLICE) == fabric.num_slices
    assert fabric.free_count(TileKind.BANK) == fabric.num_banks
