"""Randomized invariant tests for the MSHR file.

Seeded random allocate/retire streams against a transparent reference
model.  Seed policy matches ``test_setassoc_random``: fixed default,
``REPRO_PROPERTY_SEED`` override in CI.
"""

import os
import random

from tests.oracles.objmodel.mshr import MSHRFile

SEED = int(os.environ.get("REPRO_PROPERTY_SEED", "20140301"))


def test_merge_and_capacity_invariants_under_random_stream():
    rng = random.Random(SEED)
    capacity = 4
    mshr = MSHRFile(capacity=capacity, line_size=64)
    outstanding = {}  # line -> (fill_cycle, [waiters])
    primary = secondary = stalls = 0
    now = 0
    for seq in range(5000):
        now += rng.randrange(0, 3)
        if rng.random() < 0.25:
            # retire everything due by now
            done = mshr.retire_filled(now)
            for entry in done:
                fill, waiters = outstanding.pop(entry.line)
                assert entry.fill_cycle == fill
                assert entry.waiters == waiters
            assert all(f > now for f, _ in outstanding.values())
            continue
        address = rng.randrange(0, 32) * 64 + rng.randrange(0, 64)
        line = address // 64
        fill = now + rng.randrange(1, 50)
        entry = mshr.allocate(address, fill_cycle=fill, waiter_seq=seq)
        if line in outstanding:
            # secondary miss: merged, inherits the earlier fill time
            secondary += 1
            assert entry is not None
            assert entry.fill_cycle == outstanding[line][0]
            outstanding[line][1].append(seq)
        elif len(outstanding) >= capacity:
            stalls += 1
            assert entry is None
        else:
            primary += 1
            assert entry is not None and entry.fill_cycle == fill
            outstanding[line] = (fill, [seq])
        assert len(mshr) == len(outstanding) <= capacity
        assert mshr.full == (len(outstanding) >= capacity)
    assert mshr.primary_misses == primary
    assert mshr.secondary_merges == secondary
    assert mshr.full_stalls == stalls


def test_earliest_fill_tracks_minimum():
    rng = random.Random(SEED + 1)
    mshr = MSHRFile(capacity=8)
    fills = []
    for i in range(8):
        fill = rng.randrange(10, 1000)
        assert mshr.allocate(i * 64, fill_cycle=fill, waiter_seq=i)
        fills.append(fill)
        assert mshr.earliest_fill() == min(fills)


def test_retire_is_exact_and_idempotent():
    rng = random.Random(SEED + 2)
    mshr = MSHRFile(capacity=8)
    for i in range(8):
        mshr.allocate(i * 64, fill_cycle=rng.randrange(1, 100),
                      waiter_seq=i)
    cut = 50
    done = mshr.retire_filled(cut)
    assert all(e.fill_cycle <= cut for e in done)
    assert all(e.fill_cycle > cut
               for e in mshr._entries.values())
    assert mshr.retire_filled(cut) == []


def test_lookup_finds_entry_by_any_address_in_line():
    mshr = MSHRFile(capacity=2, line_size=64)
    mshr.allocate(130, fill_cycle=9, waiter_seq=0)  # line 2
    for offset in range(64):
        entry = mshr.lookup(128 + offset)
        assert entry is not None and entry.line == 2
    assert mshr.lookup(64) is None


def test_flush_empties_the_file():
    mshr = MSHRFile(capacity=4)
    for i in range(4):
        mshr.allocate(i * 64, fill_cycle=5, waiter_seq=i)
    assert mshr.flush() == 4
    assert len(mshr) == 0
    assert not mshr.full
    assert mshr.earliest_fill() is None
