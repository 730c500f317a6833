"""The column generator against the object-emitting oracle.

:class:`~repro.trace.generator.SyntheticTraceGenerator` writes a
trace's columns directly; ``tests/oracles/trace_generator.py`` is the
same generator building one ``Instruction`` per dynamic instruction.
For every profile, seed and length below the two must agree on the
warm-up addresses, then on every column, every field of every
instruction in the object view and the generator state they leave
(RNG, recent destinations, cold-line history, which a second
``generate`` call on each checks).  Each length is generated from the
post-warm-up state, as :func:`~repro.trace.materialize.get_workload`
does; the warm-up is made once per profile and seed and forked.
``REPRO_EQUIVALENCE_FULL=1`` (the CI batched-equiv job sets it) adds
the benchmark's trace lengths, 4,000 and 24,000 instructions at its
seed 1.
"""

import copy
import os
import random

import pytest

from repro.trace.generator import SyntheticTraceGenerator
from repro.trace.profiles import all_benchmarks, get_profile
from tests.oracles.trace_generator import ObjectTraceGenerator

COLUMNS = ("pcs", "opcodes", "srcs", "dsts", "mem_addrs", "flags",
           "targets")
SEEDS = (0, 1, 5)
LENGTHS = (1, 7, 200, 4000)
FULL = os.environ.get("REPRO_EQUIVALENCE_FULL") == "1"
#: perfbench's simulated trace lengths (sim-exact, sim-sampled) and seed.
BENCH_SEED = 1
BENCH_LENGTHS = (4000, 24000)


def _fork(generator):
    """A copy of ``generator`` that shares none of its mutable state."""
    clone = copy.copy(generator)
    clone._rng = random.Random()
    clone._rng.setstate(generator._rng.getstate())
    clone._recent_dsts = list(generator._recent_dsts)
    clone._cold_history = list(generator._cold_history)
    return clone


def _assert_same_trace(got, want):
    assert got.metadata == want.metadata
    for name in COLUMNS:
        assert getattr(got, name) == getattr(want, name), name
    # Dataclass equality: seq, pc, opcode, srcs, dst, mem, taken, target.
    assert list(got) == list(want)


def _check(bench, seed, lengths):
    profile = get_profile(bench)
    new = SyntheticTraceGenerator(profile, seed=seed)
    old = ObjectTraceGenerator(profile, seed=seed)
    assert new.warmup_addresses() == old.warmup_addresses()
    for length in lengths:
        got, want = _fork(new), _fork(old)
        _assert_same_trace(got.generate(length), want.generate(length))
        assert got._rng.getstate() == want._rng.getstate()
        _assert_same_trace(got.generate(50), want.generate(50))


@pytest.mark.parametrize("bench", all_benchmarks())
def test_columns_match_object_generator(bench):
    for seed in SEEDS:
        _check(bench, seed, LENGTHS)


@pytest.mark.skipif(not FULL, reason="REPRO_EQUIVALENCE_FULL=1 only")
@pytest.mark.parametrize("bench", all_benchmarks())
def test_benchmark_lengths_match_object_generator(bench):
    _check(bench, BENCH_SEED, BENCH_LENGTHS)
