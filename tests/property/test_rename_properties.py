"""Property-based tests for global rename state conservation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles.objmodel.rename import GlobalRenameState, RenameStallError

arch_regs = st.integers(min_value=0, max_value=7)


class TestRenameConservation:
    @given(writes=st.lists(arch_regs, min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_registers_are_conserved(self, writes):
        """allocated + free == total, under any allocate/release order."""
        state = GlobalRenameState(num_global=32, num_arch=8)
        live = []
        for arch in writes:
            try:
                reg, prior = state.allocate(arch, producer_seq=0,
                                            producer_slice=0)
            except RenameStallError:
                # Free list exhausted: release the oldest pending prior.
                if not live:
                    break
                state.release(live.pop(0))
                continue
            live.append(reg)
            if prior is not None:
                # Commit semantics: the displaced mapping is released.
                state.release(prior.global_reg)
                if prior.global_reg in live:
                    live.remove(prior.global_reg)
        # Conservation: every register is either free or live.
        assert state.free_count + len(live) == 32

    @given(writes=st.lists(arch_regs, min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_lookup_always_returns_latest(self, writes):
        state = GlobalRenameState(num_global=64, num_arch=8)
        latest = {}
        for seq, arch in enumerate(writes):
            reg, prior = state.allocate(arch, producer_seq=seq,
                                        producer_slice=seq % 4)
            if prior is not None:
                state.release(prior.global_reg)
            latest[arch] = reg
        for arch, reg in latest.items():
            mapping = state.lookup(arch)
            assert mapping is not None
            assert mapping.global_reg == reg

    @given(writes=st.lists(arch_regs, min_size=2, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_rollback_restores_exact_rat(self, writes):
        """Allocating then rolling back youngest-first restores the RAT
        and the free list exactly."""
        state = GlobalRenameState(num_global=64, num_arch=8)
        # Commit an initial architectural state.
        for arch in range(8):
            state.allocate(arch, producer_seq=-1, producer_slice=0)
        snapshot = {arch: state.lookup(arch).global_reg for arch in range(8)}
        free_before = state.free_count

        log = []
        for seq, arch in enumerate(writes):
            reg, prior = state.allocate(arch, producer_seq=seq,
                                        producer_slice=0)
            log.append((arch, reg, prior))
        for arch, reg, prior in reversed(log):
            state.rollback(arch, reg, prior)

        assert state.free_count == free_before
        for arch in range(8):
            assert state.lookup(arch).global_reg == snapshot[arch]
