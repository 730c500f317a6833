"""Per-Slice L1 caches.

Paper Table 3: 16 KB, 64-byte lines, 2-way, 3-cycle hit delay for both the
L1 I-cache and L1 D-cache.  The L1 D-cache is private to each Slice; memory
operations are address-interleaved across Slices before access (Section
3.5), so no coherence is needed *within* a VCore.  The production core
(:mod:`repro.core.batched`) models both caches over these constants.
"""

#: Paper Table 3 L1 hit delay (cycles).
L1_HIT_LATENCY = 3

#: Paper Table 3 L1 geometry.
L1_SIZE_BYTES = 16 * 1024
L1_LINE_BYTES = 64
L1_ASSOC = 2

