"""Two-stage register renaming (paper Section 3.2, Figure 5).

Stage one (*global rename*, Section 3.2.1) maps architectural registers
onto a large global logical register space shared by all Slices of a
VCore, eliminating false dependences.  The free list is distributed across
Slices; destination renames are corrected through a master-Slice broadcast,
which costs extra pipeline depth in multi-Slice VCores.

Stage two (*local rename*, Section 3.2.2) maps global logical registers
into each Slice's Local Register File (LRF).  Remote source operands are
fetched with request/reply messages over the Scalar Operand Network and
*cached* in the LRF: later reads of the same global register from the same
Slice hit locally and send no message.

The production core (:mod:`repro.core.batched`) keeps both stages'
state in flat arrays; this module holds the rename pipeline depth.
"""

from __future__ import annotations


def rename_pipeline_depth(num_slices: int, local_depth: int = 1,
                          global_extra: int = 2) -> int:
    """Rename latency in cycles for a VCore of ``num_slices`` Slices.

    Single-Slice VCores skip the master-broadcast correction entirely;
    multi-Slice VCores pay the send-to-master / broadcast / correct steps
    of Figure 6b.
    """
    if num_slices < 1:
        raise ValueError("a VCore has at least one Slice")
    if num_slices == 1:
        return local_depth
    return local_depth + global_extra
