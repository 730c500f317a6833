"""Trace containers.

A :class:`Trace` is an ordered dynamic instruction stream plus metadata
about the workload that produced it.  Its data is a set of columns, one
entry per instruction, which both simulator cores read directly; the
synthetic generator writes them without building an
:class:`~repro.isa.Instruction` per instruction.  ``trace[i]`` and
iteration still yield ``Instruction`` objects, built from the columns on
first use, for the object model and for callers that want them.
Metadata travels with the trace so results can always be attributed to
a workload and generator seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.isa import Instruction, MemAccess, OpClass
from repro.isa.opcodes import OPCODE_CLASS, Opcode

#: Packed per-instruction flag bits (:attr:`Trace.flags`).  ``TAKEN``
#: is set only on branches, ``MUL`` only on multiplies, and ``WRITES``
#: when the instruction writes a register other than the zero register.
FLAG_BRANCH = 1
FLAG_TAKEN = 2
FLAG_LOAD = 4
FLAG_STORE = 8
FLAG_MUL = 16
FLAG_WRITES = 32
FLAG_MEM = FLAG_LOAD | FLAG_STORE


@dataclass(frozen=True)
class TraceMetadata:
    """Provenance of a trace."""

    benchmark: str
    seed: int
    length: int
    generator: str = "synthetic-v1"


class Trace(Sequence[Instruction]):
    """An immutable dynamic instruction stream, held as columns.

    One entry per instruction, in program order:

    * ``pcs``       - program counter;
    * ``opcodes``   - :class:`~repro.isa.Opcode`;
    * ``srcs``      - live source registers (reads of the zero register
      carry no dependence and are left out), a tuple;
    * ``dsts``      - destination register written, or ``-1``;
    * ``mem_addrs`` - effective address of a load or store, or ``-1``;
    * ``flags``     - packed ``FLAG_*`` bits;
    * ``targets``   - branch target PC, or ``-1``.

    ``Trace(instructions, metadata)`` converts a sequence of
    ``Instruction`` objects (sequence numbers ``0..n-1``) into columns
    once and keeps the objects as its view; :meth:`from_columns` is the
    generator's constructor.  Columns are tuples and nothing mutates a
    trace after construction, so derived data (the SoA core's columns)
    may be cached on it.
    """

    def __init__(self, instructions: Sequence[Instruction],
                 metadata: TraceMetadata):
        view = list(instructions)
        if metadata.length != len(view):
            raise ValueError(
                f"metadata length {metadata.length} != trace length "
                f"{len(view)}"
            )
        for idx, inst in enumerate(view):
            if inst.seq != idx:
                raise ValueError(
                    f"instruction at position {idx} carries seq {inst.seq}"
                )
        n = len(view)
        srcs: List[Tuple[int, ...]] = [()] * n
        dsts = [-1] * n
        mem_addrs = [-1] * n
        flags = [0] * n
        targets = [-1] * n
        for i, inst in enumerate(view):
            bits = 0
            oc = inst.op_class
            if inst.mem is not None:
                mem_addrs[i] = inst.mem.address
                bits = FLAG_STORE if oc is OpClass.STORE else FLAG_LOAD
            elif oc is OpClass.BRANCH:
                bits = FLAG_BRANCH
                if inst.taken:
                    bits |= FLAG_TAKEN
            elif oc is OpClass.MUL:
                bits = FLAG_MUL
            if inst.writes_register:
                bits |= FLAG_WRITES
                dsts[i] = inst.dst
            flags[i] = bits
            if inst.target is not None:
                targets[i] = inst.target
            srcs[i] = inst.live_srcs()
        self._set(metadata, tuple(inst.pc for inst in view),
                  tuple(inst.opcode for inst in view), tuple(srcs),
                  tuple(dsts), tuple(mem_addrs), tuple(flags),
                  tuple(targets), view)

    @classmethod
    def from_columns(cls, metadata: TraceMetadata, pcs: Sequence[int],
                     opcodes: Sequence[Opcode],
                     srcs: Sequence[Tuple[int, ...]], dsts: Sequence[int],
                     mem_addrs: Sequence[int], flags: Sequence[int],
                     targets: Sequence[int]) -> "Trace":
        """A trace over ready-made columns (see the class docstring)."""
        trace = cls.__new__(cls)
        trace._set(metadata, tuple(pcs), tuple(opcodes), tuple(srcs),
                   tuple(dsts), tuple(mem_addrs), tuple(flags),
                   tuple(targets), None)
        lengths = {len(col) for col in (
            trace.pcs, trace.opcodes, trace.srcs, trace.dsts,
            trace.mem_addrs, trace.flags, trace.targets)}
        if lengths != {metadata.length}:
            raise ValueError(
                f"metadata length {metadata.length} != column lengths "
                f"{sorted(lengths)}"
            )
        return trace

    def _set(self, metadata, pcs, opcodes, srcs, dsts, mem_addrs, flags,
             targets, view) -> None:
        self.metadata = metadata
        self.pcs = pcs
        self.opcodes = opcodes
        self.srcs = srcs
        self.dsts = dsts
        self.mem_addrs = mem_addrs
        self.flags = flags
        self.targets = targets
        self._view: Optional[List[Instruction]] = view

    def _instructions(self) -> List[Instruction]:
        """The ``Instruction`` view, built from the columns once."""
        view = self._view
        if view is None:
            view = [
                Instruction(
                    seq=seq, pc=pc, opcode=opcode, srcs=srcs,
                    dst=dst if dst >= 0 else None,
                    mem=MemAccess(address=addr) if addr >= 0 else None,
                    taken=bool(bits & FLAG_TAKEN),
                    target=target if target >= 0 else None,
                )
                for seq, (pc, opcode, srcs, dst, addr, bits, target)
                in enumerate(zip(self.pcs, self.opcodes, self.srcs,
                                 self.dsts, self.mem_addrs, self.flags,
                                 self.targets))
            ]
            self._view = view
        return view

    def __len__(self) -> int:
        return len(self.pcs)

    def __getitem__(self, idx):  # type: ignore[override]
        return self._instructions()[idx]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions())

    def op_class_counts(self) -> dict:
        """Histogram of operation classes, useful for sanity checks."""
        counts: dict = {cls: 0 for cls in OpClass}
        for opcode in self.opcodes:
            counts[OPCODE_CLASS[opcode]] += 1
        return counts

    def mem_fraction(self) -> float:
        if not self.pcs:
            return 0.0
        return (sum(1 for bits in self.flags if bits & FLAG_MEM)
                / len(self.pcs))

    def branch_fraction(self) -> float:
        if not self.pcs:
            return 0.0
        return (sum(1 for bits in self.flags if bits & FLAG_BRANCH)
                / len(self.pcs))

    def slice_of(self, start: int, stop: int) -> "Trace":
        """A sub-trace with re-based sequence numbers."""
        window = self._instructions()[start:stop]
        rebased = [replace(inst, seq=i) for i, inst in enumerate(window)]
        meta = replace(self.metadata, length=len(rebased))
        return Trace(rebased, meta)
