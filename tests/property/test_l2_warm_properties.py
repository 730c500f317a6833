"""The SoA core's backward L2 warm walk against a forward LRU replay.

``BatchedSimulator._warm`` builds the L2's post-warm-up state with
:func:`repro.core.batched._warm_lru_banks`, walking the L1-miss stream
from its end and stopping once every set is full.  It must leave
exactly the sets - lines, LRU order, and which sets exist at all - that
replaying the stream forward through ``_cache_touch`` leaves, whether
the stream fills every set of every bank or not.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batched import (
    L2_ASSOC, L2_LINE_BYTES, _L2_SETS, _cache_touch, _warm_lru_banks,
)


def _forward(nb, stream):
    banks = [{} for _ in range(nb)]
    for addr in stream:
        line = addr // L2_LINE_BYTES
        _cache_touch(banks[line % nb], _L2_SETS, L2_ASSOC, line // nb)
    return banks


def _stream(nb, fills, reuse, seed):
    """Byte addresses over ``nb`` banks.  A filling stream sweeps twice
    as many consecutive lines as the L2 holds, which puts eight distinct
    lines in every set; one that does not fill touches half as many
    lines as it holds, scattered.  ``reuse`` re-touches earlier lines
    between them, reordering the sets' LRU stacks."""
    rng = random.Random(seed)
    capacity = nb * _L2_SETS * L2_ASSOC
    base = rng.randrange(1 << 20)
    if fills:
        lines = [base + i for i in range(2 * capacity)]
    else:
        lines = [base + rng.randrange(8 * capacity)
                 for _ in range(capacity // 2)]
    stream = []
    for line in lines:
        stream.append(line * L2_LINE_BYTES + rng.randrange(L2_LINE_BYTES))
        if rng.random() < reuse:
            stream.append(stream[rng.randrange(len(stream))])
    return stream


@given(nb=st.sampled_from((1, 2, 16, 128)), fills=st.booleans(),
       reuse=st.sampled_from((0.0, 0.3)),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=16, deadline=None)
def test_backward_walk_equals_forward_replay(nb, fills, reuse, seed):
    stream = _stream(nb, fills, reuse, seed)
    banks = [{} for _ in range(nb)]
    _warm_lru_banks(banks, _L2_SETS, L2_ASSOC, stream)
    want = _forward(nb, stream)
    assert banks == want
    full = all(len(ways) == L2_ASSOC for sets in want for ways in
               sets.values()) and sum(map(len, want)) == nb * _L2_SETS
    assert full == fills


def test_empty_stream_and_no_banks():
    banks = [{}, {}]
    _warm_lru_banks(banks, _L2_SETS, L2_ASSOC, [])
    assert banks == [{}, {}]
    _warm_lru_banks([], _L2_SETS, L2_ASSOC, [64, 128])
