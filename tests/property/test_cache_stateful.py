"""Stateful property test: the set-associative cache against a reference.

A hypothesis rule-based state machine drives the cache with arbitrary
access/invalidate/flush sequences and checks it against an oracle: a
plain per-set LRU list.  Any divergence in hit/miss outcomes, dirty
tracking, or occupancy is a bug.
"""

from collections import OrderedDict

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from tests.oracles.objmodel.setassoc import SetAssociativeCache

SIZE_BYTES = 512
LINE = 64
ASSOC = 2
NUM_SETS = SIZE_BYTES // LINE // ASSOC

addresses = st.integers(min_value=0, max_value=64 * 64)


class _ReferenceLRU:
    """Oracle: dict-of-OrderedDict LRU with dirty bits."""

    def __init__(self):
        self.sets = {}

    def access(self, address, is_write):
        line = address // LINE
        idx = line % NUM_SETS
        ways = self.sets.setdefault(idx, OrderedDict())
        if line in ways:
            dirty = ways.pop(line) or is_write
            ways[line] = dirty
            return True
        if len(ways) >= ASSOC:
            ways.popitem(last=False)
        ways[line] = is_write
        return False

    def probe(self, address):
        line = address // LINE
        return line in self.sets.get(line % NUM_SETS, {})

    def invalidate(self, address):
        line = address // LINE
        ways = self.sets.get(line % NUM_SETS, {})
        if line in ways:
            return ways.pop(line)
        return False

    def flush(self):
        dirty = sum(
            1 for ways in self.sets.values() for d in ways.values() if d
        )
        self.sets.clear()
        return dirty

    def occupancy(self):
        return sum(len(ways) for ways in self.sets.values())


class CacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cache = SetAssociativeCache(
            size_bytes=SIZE_BYTES, line_size=LINE, assoc=ASSOC
        )
        self.oracle = _ReferenceLRU()

    @rule(address=addresses, is_write=st.booleans())
    def access(self, address, is_write):
        got = self.cache.access(address, is_write=is_write).hit
        expected = self.oracle.access(address, is_write)
        assert got == expected, f"hit mismatch at {address:#x}"

    @rule(address=addresses)
    def probe(self, address):
        assert self.cache.probe(address) == self.oracle.probe(address)

    @rule(address=addresses)
    def invalidate(self, address):
        assert (self.cache.invalidate(address)
                == self.oracle.invalidate(address))

    @rule()
    def flush(self):
        assert self.cache.flush() == self.oracle.flush()

    @rule(address=addresses)
    def prefetch(self, address):
        # A prefetch behaves like a clean read for content purposes.
        self.cache.prefetch(address)
        self.oracle.access(address, is_write=False)

    @invariant()
    def occupancy_matches(self):
        assert self.cache.occupancy() == self.oracle.occupancy()

    @invariant()
    def capacity_respected(self):
        assert self.cache.occupancy() <= NUM_SETS * ASSOC


TestCacheStateful = CacheMachine.TestCase
TestCacheStateful.settings = settings(max_examples=40,
                                      stateful_step_count=60,
                                      deadline=None)
