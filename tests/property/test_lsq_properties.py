"""Property-based tests for the unordered LSQ bank."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles.objmodel.lsq import DistributedLSQ, LSQBank

# A memory operation: (is_store, line, resolved_cycle)
mem_ops = st.lists(
    st.tuples(st.booleans(), st.integers(min_value=0, max_value=7),
              st.integers(min_value=0, max_value=100)),
    min_size=1, max_size=40,
)


class TestLSQBankProperties:
    @given(ops=mem_ops)
    @settings(max_examples=60, deadline=None)
    def test_forwarding_source_is_youngest_older_store(self, ops):
        bank = LSQBank(capacity=64)
        for seq, (is_store, line, resolved) in enumerate(ops):
            bank.insert(seq, is_store, line, resolved)
        load_seq = len(ops)
        for line in range(8):
            found = bank.find_forwarding_store(load_seq, line)
            expected = [
                seq for seq, (is_store, l, _) in enumerate(ops)
                if is_store and l == line
            ]
            if expected:
                assert found is not None and found.seq == max(expected)
            else:
                assert found is None

    @given(ops=mem_ops)
    @settings(max_examples=60, deadline=None)
    def test_violators_are_younger_loads_with_stale_sources(self, ops):
        bank = LSQBank(capacity=64)
        for seq, (is_store, line, resolved) in enumerate(ops):
            bank.insert(seq, is_store, line, resolved)
        store_seq = len(ops) // 2
        for line in range(8):
            violators = bank.check_store_commit(store_seq, line)
            for v in violators:
                assert not v.is_store
                assert v.seq > store_seq
                assert v.line == line
                assert v.forwarded_from is None or v.forwarded_from < store_seq

    @given(ops=mem_ops, cut=st.integers(min_value=0, max_value=40))
    @settings(max_examples=60, deadline=None)
    def test_squash_younger_is_exact(self, ops, cut):
        bank = LSQBank(capacity=64)
        for seq, (is_store, line, resolved) in enumerate(ops):
            bank.insert(seq, is_store, line, resolved)
        older = sum(1 for seq in range(len(ops)) if seq <= cut)
        removed = bank.squash_younger(cut)
        assert removed == len(ops) - older
        assert bank.occupancy() == older

    @given(ops=mem_ops)
    @settings(max_examples=40, deadline=None)
    def test_capacity_is_hard_unless_forced(self, ops):
        bank = LSQBank(capacity=4)
        inserted = 0
        for seq, (is_store, line, resolved) in enumerate(ops):
            if bank.insert(seq, is_store, line, resolved) is not None:
                inserted += 1
        assert inserted == min(4, len(ops))


class TestDistributedLSQProperties:
    @given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 24),
                              min_size=1, max_size=60),
           slices=st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_home_is_line_stable_and_in_range(self, addresses, slices):
        lsq = DistributedLSQ(num_slices=slices)
        for address in addresses:
            home = lsq.home_slice(address)
            assert 0 <= home < slices
            # Every byte of the same line homes identically.
            assert lsq.home_slice((address // 64) * 64) == home
            assert lsq.home_slice((address // 64) * 64 + 63) == home
