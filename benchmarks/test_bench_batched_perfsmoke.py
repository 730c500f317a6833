"""Perf smoke: the object model vs production ``simulate()`` on Fig 12.

Production ``simulate()`` runs the structure-of-arrays core
(:mod:`repro.core.batched`); the object model
:class:`~tests.oracles.objmodel.simulator.ReferenceSimulator` is its
equivalence reference.  Asserted end to end on the exact Figure 12 configuration
sweep (every Slice count at the 128 KB baseline, one gcc trace), one
call per grid point on both sides:

* a wall-clock speedup of production ``simulate()`` over the reference
  of at least :data:`MIN_SPEEDUP`, and
* **bit-identical** ``SimStats`` from both paths for every grid point
  (the broader equivalence surface lives in
  ``tests/core/test_batched_equivalence``).

Pure CPython on both sides: the win is column reuse, flat arrays and
event-driven wakeup.  The threshold is set at 3x so a CI-runner
slowdown doesn't flake the job while a real regression (losing the
event-driven issue path, say) still fails loudly.  Timing JSONs land in
``REPRO_PERF_SMOKE_DIR`` (default: the test's ``tmp_path``) for the CI
artifact upload.
"""

import time

from repro.core.simulator import simulate
from repro.trace.materialize import get_workload
from tests.oracles.objmodel.simulator import ReferenceSimulator

BENCHMARK = "gcc"
LENGTH = 6000
SEED = 7

#: The exact Figure 12 sweep: Slice scaling at the 128 KB baseline.
FIG12_GRID = tuple((ns, 128.0) for ns in (1, 2, 3, 4, 5, 6, 7, 8))

#: Measured runs land around 4.5-6x; 3x leaves CI-noise margin without
#: being vacuous for a pure-CPython core.
MIN_SPEEDUP = 3.0


def _reference(trace, ns, kb, warmup):
    return ReferenceSimulator(trace, num_slices=ns, l2_cache_kb=kb,
                              warmup_addresses=warmup).run()


def test_bench_batched_perf_smoke(perf_smoke_dump):
    warmup, trace = get_workload(BENCHMARK, LENGTH, SEED)

    # Warm both paths (imports, workload memo, trace columns) so the
    # timed section compares steady-state simulation, not first-touch.
    _reference(trace, 1, 128.0, warmup)
    simulate(trace, num_slices=1, l2_cache_kb=128.0,
             warmup_addresses=warmup)

    start = time.perf_counter()
    reference = [_reference(trace, ns, kb, warmup) for ns, kb in FIG12_GRID]
    reference_s = time.perf_counter() - start

    start = time.perf_counter()
    production = [
        simulate(trace, num_slices=ns, l2_cache_kb=kb,
                 warmup_addresses=warmup)
        for ns, kb in FIG12_GRID
    ]
    production_s = time.perf_counter() - start
    speedup = reference_s / production_s

    common = {
        "benchmark": BENCHMARK,
        "trace_length": LENGTH,
        "trace_seed": SEED,
        "grid": [[ns, kb] for ns, kb in FIG12_GRID],
    }
    reference_path = perf_smoke_dump("batched_perf_smoke_reference.json", {
        **common, "core": "reference", "wall_s": reference_s,
        "cycles": [r.stats.cycles for r in reference],
    })
    perf_smoke_dump("batched_perf_smoke_production.json", {
        **common, "core": "production", "wall_s": production_s,
        "speedup_vs_reference": speedup,
        "cycles": [r.stats.cycles for r in production],
    })
    print(f"\nbatched-perf-smoke: reference {reference_s:.2f}s, "
          f"production {production_s:.3f}s -> {speedup:.1f}x on the "
          f"{len(FIG12_GRID)}-config Fig 12 sweep "
          f"(timings next to {reference_path})")

    # Bit-identity before speed: a fast wrong core is worthless.
    for (ns, kb), want, got in zip(FIG12_GRID, reference, production):
        assert want == got, (
            f"production diverged from the reference at ns={ns} kb={kb:g}"
        )
    assert speedup >= MIN_SPEEDUP, (
        f"production sweep only {speedup:.1f}x faster than the reference "
        f"(reference {reference_s:.2f}s, production {production_s:.3f}s)"
    )
