"""Synthetic dynamic-trace generation.

Substitutes for the paper's GEM5 Alpha full-system traces (Section 5.2).
The generator builds a small static control-flow graph and walks it,
emitting dynamic instructions whose dependence distances, branch behaviour
and memory reuse follow the statistical targets in a
:class:`~repro.trace.profiles.BenchmarkProfile`.

Only the *statistics* of the stream matter to the micro-architecture under
study, so this substitution exercises the same simulator code paths as a
real trace would: register renaming sees the same dependence structure, the
branch unit sees the same (mis)predictability, and the cache hierarchy sees
the same reuse-distance mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.isa.opcodes import CLASS_OPCODES, OpClass, Opcode
from repro.trace.profiles import BenchmarkProfile, get_profile
from repro.trace.records import (
    FLAG_BRANCH, FLAG_LOAD, FLAG_MUL, FLAG_STORE, FLAG_TAKEN, FLAG_WRITES,
    Trace, TraceMetadata,
)

#: Size of the "hot" data region that always fits in the L1 D-cache.
_HOT_REGION_BYTES = 4 * 1024
#: Base virtual address of the data segment.
_DATA_BASE = 0x1000_0000
#: Base of the cold region, well above the hot region so the two never
#: alias.
_COLD_BASE = _DATA_BASE + 0x100_0000
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


class SyntheticTraceGenerator:
    """Generates dynamic instruction traces for one benchmark profile."""

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
        return [_COLD_BASE + self._cold_line() * 64 for _ in range(n)]

    def generate(self, length: int) -> Trace:
        """Generate a dynamic trace of ``length`` instructions.

        Walks the control-flow graph and appends each instruction
        straight into the trace's columns.  A block-body slot draws its
        class, opcode, sources (ALU and multiply ops take a second one
        with probability ``_two_src_prob``), destination and address, in
        that order; the branch that ends a block draws its direction,
        opcode and one source.  Every draw fixes the stream for a seed,
        the opcode included, although no simulator reads it.
        """
        if length < 1:
            raise ValueError("trace length must be positive")
        rng = self._rng
        rand = rng.random
        randrange = rng.randrange
        choice = rng.choice
        recent = self._recent_dsts
        dep_p = self._dep_p
        two_src_prob = self._two_src_prob
        miss_frac = self._miss_frac
        cold_line = self._cold_line
        # Branches only end blocks, so body-slot class fractions are
        # scaled by 1 / (1 - frac_branch) to realise the global mix.
        profile = self.profile
        scale = 1.0 / (1.0 - profile.frac_branch)
        p_load = profile.frac_load * scale
        p_store = profile.frac_store * scale
        p_mul = profile.frac_mul * scale
        load_ops = CLASS_OPCODES[OpClass.LOAD]
        store_ops = CLASS_OPCODES[OpClass.STORE]
        mul_ops = CLASS_OPCODES[OpClass.MUL]
        alu_ops = CLASS_OPCODES[OpClass.ALU]
        branch_ops = CLASS_OPCODES[OpClass.BRANCH]

        def pick_src() -> int:
            """A source register at a profile-typical dependence distance:
            geometric back into the window of recent destinations."""
            if not recent:
                return randrange(1, 32)
            dist = 1
            while rand() > dep_p and dist < len(recent):
                dist += 1
            return recent[-dist]

        def pick_address() -> int:
            """A cold (L1-missing) line with probability ``miss_frac``,
            else a word of the always-resident hot region."""
            if rand() < miss_frac:
                return _COLD_BASE + cold_line() * 64
            return _DATA_BASE + randrange(_HOT_REGION_BYTES // 8) * 8

        pcs: List[int] = []
        opcodes: List[Opcode] = []
        srcs: List[Tuple[int, ...]] = []
        dsts: List[int] = []
        addrs: List[int] = []
        flags: List[int] = []
        targets: List[int] = []
        blocks = self._blocks
        block = blocks[0]
        seq = 0
        while True:
            base = block.base_pc
            body = min(block.body_len, length - seq)
            for pc in range(base, base + body):
                # The class: r walks down the load, store and multiply
                # fractions; what is left is an ALU op.
                r = rand()
                if r < p_load:
                    opcodes.append(choice(load_ops))
                    srcs.append((pick_src(),))
                    dst = randrange(1, 32)  # never the zero register
                    addrs.append(pick_address())
                    flags.append(FLAG_LOAD | FLAG_WRITES)
                elif r - p_load < p_store:
                    opcodes.append(choice(store_ops))
                    srcs.append((pick_src(), pick_src()))
                    dst = -1
                    addrs.append(pick_address())
                    flags.append(FLAG_STORE)
                else:
                    if r - p_load - p_store < p_mul:
                        opcodes.append(choice(mul_ops))
                        flags.append(FLAG_MUL | FLAG_WRITES)
                    else:
                        opcodes.append(choice(alu_ops))
                        flags.append(FLAG_WRITES)
                    if rand() < two_src_prob:
                        srcs.append((pick_src(), pick_src()))
                    else:
                        srcs.append((pick_src(),))
                    dst = randrange(1, 32)
                    addrs.append(-1)
                pcs.append(pc)
                dsts.append(dst)
                targets.append(-1)
                if dst >= 0:
                    recent.append(dst)
                    if len(recent) > 64:
                        del recent[0]
            seq += body
            if seq >= length:
                break
            branch = block.branch
            taken = rand() < branch.bias
            opcodes.append(choice(branch_ops))
            srcs.append((pick_src(),))
            pcs.append(branch.pc)
            dsts.append(-1)
            addrs.append(-1)
            seq += 1
            if taken:
                block = blocks[branch.target_block]
                flags.append(FLAG_BRANCH | FLAG_TAKEN)
                targets.append(block.base_pc)
            else:
                block = blocks[block.fallthrough_block]
                flags.append(FLAG_BRANCH)
                targets.append(-1)
            if seq >= length:
                break
        meta = TraceMetadata(benchmark=profile.name, seed=self.seed,
                             length=length)
        return Trace.from_columns(meta, pcs, opcodes, srcs, dsts, addrs,
                                  flags, targets)


def generate_trace(benchmark: str, length: int, seed: int = 0) -> Trace:
    """Convenience wrapper: generate a trace for a named benchmark."""
    profile = get_profile(benchmark)
    return SyntheticTraceGenerator(profile, seed=seed).generate(length)


def make_workload(benchmark: str, length: int, seed: int = 0,
                  warmup_cold_multiplier: float = 4.0):
    """Build a (warmup_addresses, trace) pair for timed simulation.

    The warmup address stream and the timed trace share one reuse
    history, so the timed region re-touches lines the warmup installed -
    exactly what a fast-forwarded full-length trace would provide.
    """
    generator = SyntheticTraceGenerator(get_profile(benchmark), seed=seed)
    warmup = generator.warmup_addresses(warmup_cold_multiplier)
    trace = generator.generate(length)
    return warmup, trace
