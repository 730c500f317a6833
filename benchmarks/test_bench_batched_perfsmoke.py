"""Perf smoke: scalar vs batched simulator backend on the Fig 12 sweep.

The batched structure-of-arrays backend's headline claim, asserted end
to end on the exact Figure 12 configuration sweep (every Slice count at
the 128 KB baseline, one gcc trace):

* a wall-clock speedup of ``BatchedSimulator`` over per-config scalar
  ``simulate()`` calls of at least :data:`MIN_SPEEDUP`, and
* **bit-identical** ``SimStats`` from both paths for every grid point
  (the broader equivalence surface lives in
  ``tests/core/test_batched_equivalence``).

Honest numbers: pure-CPython lockstep batching measures ~4.5-6x on this
sweep on the development machine (the scalar path spends its time in
the same interpreter, so there is no vectorization cliff to jump off -
the win is column reuse, flat arrays and event-driven wakeup).  The
threshold is set at 3x so a CI-runner slowdown doesn't flake the job
while a real regression (losing the event-driven issue path, say)
still fails loudly.  Timing JSONs land in ``REPRO_PERF_SMOKE_DIR``
(default: the test's ``tmp_path``) for the CI artifact upload.
"""

import time

from repro.core.batched import BatchedSimulator
from repro.core.simulator import simulate
from repro.trace.materialize import get_workload

BENCHMARK = "gcc"
LENGTH = 6000
SEED = 7

#: The exact Figure 12 sweep: Slice scaling at the 128 KB baseline.
FIG12_GRID = tuple((ns, 128.0) for ns in (1, 2, 3, 4, 5, 6, 7, 8))

#: Measured runs land around 4.5-6x (see module docstring); 3x leaves
#: CI-noise margin without being vacuous for a pure-CPython backend.
MIN_SPEEDUP = 3.0


def test_bench_batched_perf_smoke(perf_smoke_dump):
    warmup, trace = get_workload(BENCHMARK, LENGTH, SEED)

    # Warm both paths (imports, workload memo, trace columns) so the
    # timed section compares steady-state simulation, not first-touch.
    simulate(trace, num_slices=1, l2_cache_kb=128.0,
             warmup_addresses=warmup)
    BatchedSimulator(trace, [FIG12_GRID[0]],
                     warmup_addresses=[warmup]).run()

    start = time.perf_counter()
    scalar = [
        simulate(trace, num_slices=ns, l2_cache_kb=kb,
                 warmup_addresses=warmup)
        for ns, kb in FIG12_GRID
    ]
    scalar_s = time.perf_counter() - start

    start = time.perf_counter()
    batched = BatchedSimulator(trace, list(FIG12_GRID),
                               warmup_addresses=[warmup]).run()
    batched_s = time.perf_counter() - start
    speedup = scalar_s / batched_s

    common = {
        "benchmark": BENCHMARK,
        "trace_length": LENGTH,
        "trace_seed": SEED,
        "grid": [[ns, kb] for ns, kb in FIG12_GRID],
    }
    scalar_path = perf_smoke_dump("batched_perf_smoke_scalar.json", {
        **common, "backend": "python", "wall_s": scalar_s,
        "cycles": [r.stats.cycles for r in scalar],
    })
    perf_smoke_dump("batched_perf_smoke_batched.json", {
        **common, "backend": "batched", "wall_s": batched_s,
        "speedup_vs_scalar": speedup,
        "cycles": [r.stats.cycles for r in batched],
    })
    print(f"\nbatched-perf-smoke: scalar {scalar_s:.2f}s, batched "
          f"{batched_s:.3f}s -> {speedup:.1f}x on the "
          f"{len(FIG12_GRID)}-config Fig 12 sweep "
          f"(timings next to {scalar_path})")

    # Bit-identity before speed: a fast wrong backend is worthless.
    for (ns, kb), want, got in zip(FIG12_GRID, scalar, batched):
        assert want == got, (
            f"batched diverged from scalar at ns={ns} kb={kb:g}"
        )
    assert speedup >= MIN_SPEEDUP, (
        f"batched sweep only {speedup:.1f}x faster than scalar "
        f"(scalar {scalar_s:.2f}s, batched {batched_s:.3f}s)"
    )
