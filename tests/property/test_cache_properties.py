"""Property-based tests for the cache substrate."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.l2 import default_bank_distances
from tests.oracles.objmodel.l2 import BankedL2
from tests.oracles.objmodel.setassoc import SetAssociativeCache

addresses = st.integers(min_value=0, max_value=1 << 30)
access_lists = st.lists(
    st.tuples(addresses, st.booleans()), min_size=1, max_size=200
)


class TestSetAssocInvariants:
    @given(accesses=access_lists)
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, accesses):
        cache = SetAssociativeCache(size_bytes=1024, line_size=64, assoc=2)
        for address, is_write in accesses:
            cache.access(address, is_write=is_write)
        assert cache.occupancy() <= cache.num_sets * cache.assoc

    @given(accesses=access_lists)
    @settings(max_examples=50, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, accesses):
        cache = SetAssociativeCache(size_bytes=2048, line_size=64, assoc=4)
        for address, is_write in accesses:
            cache.access(address, is_write=is_write)
        assert cache.hits + cache.misses == len(accesses)

    @given(accesses=access_lists)
    @settings(max_examples=50, deadline=None)
    def test_immediate_reaccess_always_hits(self, accesses):
        cache = SetAssociativeCache(size_bytes=2048, line_size=64, assoc=4)
        for address, is_write in accesses:
            cache.access(address, is_write=is_write)
            assert cache.access(address).hit

    @given(accesses=access_lists)
    @settings(max_examples=50, deadline=None)
    def test_flush_empties_and_counts_dirty(self, accesses):
        cache = SetAssociativeCache(size_bytes=2048, line_size=64, assoc=4)
        for address, is_write in accesses:
            cache.access(address, is_write=is_write)
        dirty = cache.flush()
        assert 0 <= dirty <= len(accesses)
        assert cache.occupancy() == 0

    @given(address=addresses)
    @settings(max_examples=50, deadline=None)
    def test_probe_agrees_with_access(self, address):
        cache = SetAssociativeCache(size_bytes=2048, line_size=64, assoc=4)
        assert not cache.probe(address)
        cache.access(address)
        assert cache.probe(address)


class TestBankedL2Invariants:
    @given(
        num_banks=st.integers(min_value=1, max_value=64),
        accesses=st.lists(addresses, min_size=1, max_size=100),
    )
    @settings(max_examples=30, deadline=None)
    def test_home_bank_is_stable(self, num_banks, accesses):
        l2 = BankedL2(num_banks=num_banks)
        for address in accesses:
            first = l2.bank_for(address).bank_id
            second = l2.bank_for(address).bank_id
            assert first == second

    @given(num_banks=st.integers(min_value=1, max_value=128))
    @settings(max_examples=30, deadline=None)
    def test_ring_distances_monotone(self, num_banks):
        distances = default_bank_distances(num_banks)
        assert len(distances) == num_banks
        assert distances == sorted(distances)
        assert all(d >= 1 for d in distances)
        # Ring r holds at most 4r banks.
        from collections import Counter
        counts = Counter(distances)
        assert all(count <= 4 * ring for ring, count in counts.items())

    @given(accesses=st.lists(addresses, min_size=1, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_most_recent_line_always_resident(self, accesses):
        """LRU guarantee: the line just accessed is still resident."""
        l2 = BankedL2(num_banks=16)
        for address in accesses:
            l2.access(address)
            result, _ = l2.access(address)
            assert result.hit
