"""Trace containers.

A :class:`Trace` is an ordered dynamic instruction stream plus metadata
about the workload that produced it.  Traces are plain sequences so the
simulator can index into them cheaply; metadata travels with the trace so
results can always be attributed to a workload and generator seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence

from repro.isa import Instruction, OpClass


@dataclass(frozen=True)
class TraceMetadata:
    """Provenance of a trace."""

    benchmark: str
    seed: int
    length: int
    generator: str = "synthetic-v1"


class Trace(Sequence[Instruction]):
    """An immutable dynamic instruction stream."""

    def __init__(self, instructions: Sequence[Instruction], metadata: TraceMetadata):
        self._instructions: List[Instruction] = list(instructions)
        self.metadata = metadata
        if metadata.length != len(self._instructions):
            raise ValueError(
                f"metadata length {metadata.length} != trace length "
                f"{len(self._instructions)}"
            )
        self._validate_sequence_numbers()

    def _validate_sequence_numbers(self) -> None:
        for idx, inst in enumerate(self._instructions):
            if inst.seq != idx:
                raise ValueError(
                    f"instruction at position {idx} carries seq {inst.seq}"
                )

    def __len__(self) -> int:
        return len(self._instructions)

    def __getitem__(self, idx):  # type: ignore[override]
        return self._instructions[idx]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def op_class_counts(self) -> dict:
        """Histogram of operation classes, useful for sanity checks."""
        counts: dict = {cls: 0 for cls in OpClass}
        for inst in self._instructions:
            counts[inst.op_class] += 1
        return counts

    def mem_fraction(self) -> float:
        if not self._instructions:
            return 0.0
        n_mem = sum(1 for i in self._instructions if i.is_mem)
        return n_mem / len(self._instructions)

    def branch_fraction(self) -> float:
        if not self._instructions:
            return 0.0
        n_br = sum(1 for i in self._instructions if i.is_branch)
        return n_br / len(self._instructions)

    def slice_of(self, start: int, stop: int) -> "Trace":
        """A sub-trace with re-based sequence numbers."""
        window = self._instructions[start:stop]
        rebased = [
            Instruction(
                seq=i,
                pc=inst.pc,
                opcode=inst.opcode,
                srcs=inst.srcs,
                dst=inst.dst,
                mem=inst.mem,
                taken=inst.taken,
                target=inst.target,
            )
            for i, inst in enumerate(window)
        ]
        meta = TraceMetadata(
            benchmark=self.metadata.benchmark,
            seed=self.metadata.seed,
            length=len(rebased),
            generator=self.metadata.generator,
        )
        return Trace(rebased, meta)
