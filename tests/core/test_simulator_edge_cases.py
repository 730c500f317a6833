"""Adversarial and edge-case traces for the simulator.

Failure injection by construction: traces designed to stress one
mechanism at a time (replay storms, store-buffer pressure, branch
walls, single instructions, maximum configurations).
"""

import pytest

from repro.core.config import SimConfig, SliceConfig
from repro.core.simulator import simulate
from repro.isa import NUM_ARCH_REGS, Instruction, MemAccess, Opcode
from repro.trace.materialize import get_workload
from repro.trace.records import Trace, TraceMetadata
from tests.oracles.objmodel.simulator import ReferenceSimulator


def _trace(insts, name="edge"):
    return Trace(insts, TraceMetadata(benchmark=name, seed=0,
                                      length=len(insts)))


class TestDegenerateTraces:
    def test_single_instruction(self):
        tr = _trace([Instruction(seq=0, pc=0, opcode=Opcode.ADD,
                                 srcs=(1,), dst=2)])
        result = simulate(tr, num_slices=8, l2_cache_kb=8192)
        assert result.stats.committed == 1

    def test_single_store(self):
        tr = _trace([Instruction(seq=0, pc=0, opcode=Opcode.ST,
                                 srcs=(1, 2), mem=MemAccess(address=64))])
        result = simulate(tr, num_slices=1, l2_cache_kb=0)
        assert result.stats.committed == 1

    def test_single_taken_branch(self):
        tr = _trace([Instruction(seq=0, pc=0, opcode=Opcode.BEQ,
                                 srcs=(1,), taken=True, target=100)])
        result = simulate(tr, num_slices=2, l2_cache_kb=64)
        assert result.stats.committed == 1
        assert result.stats.branches == 1


class TestStorePressure:
    def test_all_stores_to_one_line(self):
        """Store-buffer back-pressure must not deadlock commit."""
        insts = [
            Instruction(seq=i, pc=i, opcode=Opcode.ST, srcs=(0, 0),
                        mem=MemAccess(address=0x400))
            for i in range(120)
        ]
        result = simulate(_trace(insts), num_slices=1, l2_cache_kb=64)
        assert result.stats.committed == 120

    def test_all_stores_striped_across_banks(self):
        insts = [
            Instruction(seq=i, pc=i, opcode=Opcode.ST, srcs=(0, 0),
                        mem=MemAccess(address=i * 64))
            for i in range(120)
        ]
        result = simulate(_trace(insts), num_slices=4, l2_cache_kb=256)
        assert result.stats.committed == 120


class TestReplayStorm:
    def test_alternating_store_load_same_line(self):
        """Maximum aliasing: every load races its predecessor store."""
        insts = []
        for i in range(80):
            if i % 2 == 0:
                insts.append(Instruction(
                    seq=i, pc=i, opcode=Opcode.ST, srcs=((i % 5) + 1, 2),
                    mem=MemAccess(address=0x800)))
            else:
                insts.append(Instruction(
                    seq=i, pc=i, opcode=Opcode.LD, srcs=(0,),
                    dst=(i % 5) + 1, mem=MemAccess(address=0x800)))
        result = simulate(_trace(insts), num_slices=4, l2_cache_kb=128)
        assert result.stats.committed == 80
        # The storm resolves through forwarding and/or bounded replay.
        assert result.stats.store_forwards + result.stats.lsq_violations > 0


class TestBranchWall:
    def test_every_instruction_is_a_branch(self):
        insts = []
        for i in range(100):
            taken = i % 3 == 0
            insts.append(Instruction(
                seq=i, pc=(i * 7) % 50, opcode=Opcode.BNE, srcs=(1,),
                taken=taken, target=((i + 1) * 7) % 50 if taken else None))
        result = simulate(_trace(insts), num_slices=4, l2_cache_kb=64)
        assert result.stats.committed == 100
        assert result.stats.branches == 100


class TestExtremeConfigurations:
    def test_eight_slices_tiny_trace(self):
        insts = [Instruction(seq=i, pc=i, opcode=Opcode.ADD, srcs=(0,),
                             dst=1) for i in range(4)]
        result = simulate(_trace(insts), num_slices=8, l2_cache_kb=8192)
        assert result.stats.committed == 4

    def test_zero_register_only_traffic(self):
        """Instructions reading/writing only the zero register carry no
        dependences and allocate no rename state."""
        insts = [Instruction(seq=i, pc=i, opcode=Opcode.ADD, srcs=(0, 0),
                             dst=0) for i in range(64)]
        result = simulate(_trace(insts), num_slices=2, l2_cache_kb=64)
        assert result.stats.committed == 64

    def test_dense_mul_chain_across_slices(self):
        insts = [Instruction(seq=i, pc=i, opcode=Opcode.MUL, srcs=(5,),
                             dst=5) for i in range(60)]
        result = simulate(_trace(insts), num_slices=8, l2_cache_kb=128)
        assert result.stats.committed == 60
        # Serial 3-cycle multiplies: at least 3 cycles per instruction.
        assert result.cycles >= 60 * 3

    def test_smallest_local_register_file_completes(self):
        """One LRF entry per architectural register, the minimum
        ``SliceConfig`` accepts, leaves dispatch room: gcc runs to
        completion on one Slice on both cores."""
        warmup, trace = get_workload("gcc", 1500, 3)
        config = SimConfig(
            slice_config=SliceConfig(num_local_registers=NUM_ARCH_REGS),
            max_cycles=100_000)
        want = ReferenceSimulator(trace, config,
                                  warmup_addresses=warmup).run()
        got = simulate(trace, config=config, warmup_addresses=warmup)
        assert want.stats.committed == len(trace)
        assert want == got
