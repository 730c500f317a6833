"""Trace-generator oracle: the synthetic generator that emits objects.

Production :class:`repro.trace.generator.SyntheticTraceGenerator` writes
the trace's columns directly.  This is the same generator building one
frozen :class:`~repro.isa.Instruction` per dynamic instruction and a
:class:`~repro.trace.records.Trace` from the list, drawing from its RNG
in the same order.  ``tests/trace/test_generator_oracle.py`` holds the
column generator to it: every column, every instruction of the object
view, the warm-up addresses and the RNG state must be equal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.isa import Instruction, MemAccess
from repro.isa.opcodes import CLASS_OPCODES, OpClass
from repro.trace.profiles import BenchmarkProfile
from repro.trace.records import Trace, TraceMetadata

#: Size of the "hot" data region that always fits in the L1 D-cache.
_HOT_REGION_BYTES = 4 * 1024
#: Base virtual address of the data segment.
_DATA_BASE = 0x1000_0000
#: Base of the code segment; PCs are instruction indices, not bytes.
_CODE_BASE = 0x40_0000
#: Bias of an easy (highly predictable) static branch.
_EASY_BIAS = 0.995
#: Bias of a hard static branch (bimodal accuracy ~= max(p, 1-p)).
_HARD_BIAS = 0.70


@dataclass
class _StaticBranch:
    """A static branch site with a fixed bias and taken-target."""

    pc: int
    bias: float
    target_block: int


@dataclass
class _BasicBlock:
    """A static basic block: a run of non-branch slots plus one branch."""

    base_pc: int
    body_len: int
    branch: _StaticBranch
    fallthrough_block: int


class ObjectTraceGenerator:
    """The object-emitting generator for one benchmark profile."""

    def __init__(
        self,
        profile: BenchmarkProfile,
        seed: int = 0,
        num_blocks: int = 64,
        mean_block_len: Optional[int] = None,
    ):
        if num_blocks < 2:
            raise ValueError("need at least two basic blocks")
        if mean_block_len is None:
            # One branch per block, so the block length realises the
            # profile's branch fraction.
            mean_block_len = max(2, round(1.0 / profile.frac_branch) - 1)
        self.profile = profile
        self.seed = seed
        self._rng = random.Random(seed)
        self._blocks = self._build_cfg(num_blocks, mean_block_len)
        self._recent_dsts: List[int] = []
        self._ws_bytes = max(
            _HOT_REGION_BYTES * 2, int(profile.l2_ws_kb * 1024)
        )
        self._ws_lines = self._ws_bytes // 64
        #: history of cold lines touched (most recent last); reuse draws
        #: index from the tail at exponential distances
        self._cold_history: List[int] = []
        #: allocator for never-before-seen (compulsory-miss) lines
        self._next_cold_line = 0
        # Dependence-distance distribution: geometric with mean tied to the
        # profile's ILP (longer distances expose more parallelism).
        mean_dist = max(2.0, profile.ilp * 3.5)
        self._dep_p = 1.0 / mean_dist
        #: probability an ALU op carries a second register dependence
        self._two_src_prob = 0.4
        self._miss_frac = self._l1_miss_fraction()

    def _l1_miss_fraction(self) -> float:
        """Fraction of memory ops directed at the cold (L1-missing) region."""
        mem_pki = (self.profile.frac_load + self.profile.frac_store) * 1000.0
        if mem_pki <= 0:
            return 0.0
        return min(1.0, self.profile.l1_mpki / mem_pki)

    # ------------------------------------------------------------------
    # static program construction
    # ------------------------------------------------------------------

    def _build_cfg(self, num_blocks: int, mean_block_len: int) -> List[_BasicBlock]:
        """Lay out ``num_blocks`` blocks with biased branches between them."""
        accuracy_target = self.profile.branch_predictability()
        # Mixture of easy/hard branches whose average bimodal accuracy hits
        # the target: accuracy ~= q * EASY + (1 - q) * HARD.
        hard_acc = max(_HARD_BIAS, 1.0 - _HARD_BIAS)
        easy_acc = _EASY_BIAS
        if easy_acc == hard_acc:
            frac_easy = 1.0
        else:
            frac_easy = (accuracy_target - hard_acc) / (easy_acc - hard_acc)
        frac_easy = min(1.0, max(0.0, frac_easy))

        blocks: List[_BasicBlock] = []
        pc = _CODE_BASE
        for idx in range(num_blocks):
            body_len = max(2, int(self._rng.expovariate(1.0 / mean_block_len)))
            branch_pc = pc + body_len
            if self._rng.random() < frac_easy:
                bias = _EASY_BIAS if self._rng.random() < 0.5 else 1.0 - _EASY_BIAS
            else:
                bias = _HARD_BIAS if self._rng.random() < 0.5 else 1.0 - _HARD_BIAS
            target = self._rng.randrange(num_blocks)
            fallthrough = (idx + 1) % num_blocks
            blocks.append(
                _BasicBlock(
                    base_pc=pc,
                    body_len=body_len,
                    branch=_StaticBranch(pc=branch_pc, bias=bias, target_block=target),
                    fallthrough_block=fallthrough,
                )
            )
            pc = branch_pc + 1
        return blocks

    # ------------------------------------------------------------------
    # dynamic instruction synthesis
    # ------------------------------------------------------------------

    def _pick_dst(self) -> int:
        """Destination register, avoiding the zero register."""
        return self._rng.randrange(1, 32)

    def _pick_src(self) -> int:
        """Source register at a profile-typical dependence distance."""
        if not self._recent_dsts:
            return self._rng.randrange(1, 32)
        # Geometric distance back into the recent-writer window.
        dist = 1
        while self._rng.random() > self._dep_p and dist < len(self._recent_dsts):
            dist += 1
        dist = min(dist, len(self._recent_dsts))
        return self._recent_dsts[-dist]

    def _cold_line(self) -> int:
        """Pick a cold line realising the profile's L2 miss-rate curve.

        With probability ``l2_floor`` the access is compulsory (a fresh
        line, missing at any capacity).  Otherwise the line is drawn from
        the access history at an exponentially distributed reuse distance
        with mean ``l2_ws_kb`` worth of lines - under LRU this yields a
        miss fraction of approximately ``exp(-capacity / l2_ws_kb)``,
        matching :meth:`BenchmarkProfile.l2_miss_fraction` by
        construction.
        """
        history = self._cold_history
        fresh = self._rng.random() < self.profile.l2_floor
        if not fresh:
            offset = 1 + int(self._rng.expovariate(1.0 / self._ws_lines))
            if offset <= len(history):
                line = history[-offset]
            else:
                # Reuse distance beyond recorded history: effectively a
                # compulsory miss at any capacity.
                fresh = True
        if fresh:
            line = self._next_cold_line
            self._next_cold_line += 1
        history.append(line)
        # Bound the history so arbitrarily long traces stay O(working set).
        if len(history) > 12 * self._ws_lines:
            del history[: len(history) - 10 * self._ws_lines]
        return line

    def _pick_address(self) -> int:
        """Memory address following the profile's reuse structure."""
        if self._rng.random() < self._miss_frac:
            # Cold access (L1-missing): reuse at L2 scales or compulsory.
            # The cold region sits well above the hot region so the two
            # never alias.
            return _DATA_BASE + 0x100_0000 + self._cold_line() * 64
        # Hot access: always L1-resident.
        offset = self._rng.randrange(_HOT_REGION_BYTES // 8) * 8
        return _DATA_BASE + offset

    def _pick_op_class(self) -> OpClass:
        """Pick a non-branch class for a block-body slot.

        Branches are emitted only at block ends, so body-slot fractions
        are scaled by 1 / (1 - frac_branch) to realise the profile's
        global instruction mix.
        """
        p = self.profile
        scale = 1.0 / (1.0 - p.frac_branch)
        r = self._rng.random()
        if r < p.frac_load * scale:
            return OpClass.LOAD
        r -= p.frac_load * scale
        if r < p.frac_store * scale:
            return OpClass.STORE
        r -= p.frac_store * scale
        if r < p.frac_mul * scale:
            return OpClass.MUL
        return OpClass.ALU

    def _emit(self, seq: int, pc: int, op_class: OpClass) -> Instruction:
        opcode = self._rng.choice(CLASS_OPCODES[op_class])
        srcs: tuple
        dst: Optional[int]
        mem: Optional[MemAccess] = None
        if op_class is OpClass.LOAD:
            srcs = (self._pick_src(),)
            dst = self._pick_dst()
            mem = MemAccess(address=self._pick_address())
        elif op_class is OpClass.STORE:
            srcs = (self._pick_src(), self._pick_src())
            dst = None
            mem = MemAccess(address=self._pick_address())
        elif self._rng.random() < self._two_src_prob:
            srcs = (self._pick_src(), self._pick_src())
            dst = self._pick_dst()
        else:
            srcs = (self._pick_src(),)
            dst = self._pick_dst()
        inst = Instruction(
            seq=seq, pc=pc, opcode=opcode, srcs=srcs, dst=dst, mem=mem
        )
        if dst is not None:
            self._recent_dsts.append(dst)
            if len(self._recent_dsts) > 64:
                self._recent_dsts.pop(0)
        return inst

    def _emit_branch(self, seq: int, branch: _StaticBranch) -> Instruction:
        taken = self._rng.random() < branch.bias
        target_pc = self._blocks[branch.target_block].base_pc
        opcode = self._rng.choice(CLASS_OPCODES[OpClass.BRANCH])
        return Instruction(
            seq=seq,
            pc=branch.pc,
            opcode=opcode,
            srcs=(self._pick_src(),),
            dst=None,
            taken=taken,
            target=target_pc if taken else None,
        )

    def warmup_addresses(self, cold_multiplier: float = 4.0) -> List[int]:
        """Cold-region addresses that bring the reuse history to steady
        state.

        Replaying these through the cache hierarchy (functionally, no
        timing) before a timed simulation substitutes for the fast-forward
        of a full-length trace: the L2 starts populated with the lines the
        timed region will reuse.  ``cold_multiplier`` scales the stream to
        a multiple of the working-set size.
        """
        if cold_multiplier < 0:
            raise ValueError("cold_multiplier cannot be negative")
        n = int(cold_multiplier * self._ws_lines)
        base = _DATA_BASE + 0x100_0000
        return [base + self._cold_line() * 64 for _ in range(n)]

    def generate(self, length: int) -> Trace:
        """Generate a dynamic trace of ``length`` instructions."""
        if length < 1:
            raise ValueError("trace length must be positive")
        instructions: List[Instruction] = []
        block_idx = 0
        seq = 0
        while seq < length:
            block = self._blocks[block_idx]
            for offset in range(block.body_len):
                if seq >= length:
                    break
                op_class = self._pick_op_class()
                if op_class is OpClass.BRANCH:  # branches only end blocks
                    op_class = OpClass.ALU
                instructions.append(
                    self._emit(seq, block.base_pc + offset, op_class)
                )
                seq += 1
            if seq >= length:
                break
            branch_inst = self._emit_branch(seq, block.branch)
            instructions.append(branch_inst)
            seq += 1
            if branch_inst.taken:
                block_idx = block.branch.target_block
            else:
                block_idx = block.fallthrough_block
        meta = TraceMetadata(
            benchmark=self.profile.name, seed=self.seed, length=len(instructions)
        )
        return Trace(instructions, meta)

