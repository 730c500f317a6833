"""Perf smoke: sampled vs exact on the Figure 12 scalability sweep.

The ISSUE's headline claim for sampled simulation, asserted end to end:

* >= 3x wall-clock speedup over the exact cycle-level sweep, and
* a normalised scalability curve that tracks the exact curve point by
  point (per-profile IPC accuracy is enforced separately by
  ``tests/sampling/test_equivalence.py``).

Both sides run on the production structure-of-arrays core, one
``simulate``/``simulate_sampled`` call per grid point, so the ratio is
the schedule's saving alone.  Both runs are timed sequentially in this
process after pre-warming the workload LRU, so neither pays trace
generation and the ratio is pure simulation time.  Timing JSONs land
in ``REPRO_PERF_SMOKE_DIR`` (default: the test's ``tmp_path``) for the
CI artifact upload.
"""

import time

from repro.experiments.scalability import run_simulated
from repro.sampling import DEFAULT_SAMPLING, SamplingPolicy
from repro.trace.materialize import get_workload

BENCH = "gcc"
SLICE_GRID = (1, 2, 4, 8)
LENGTH = 96_000
SEED = 1

#: ISSUE acceptance threshold.  The default policy's detail fraction
#: (~0.25) bounds the theoretical speedup near 3.9x; measured runs land
#: around 3.4-3.9x, so 3.0x leaves noise margin without being vacuous.
MIN_SPEEDUP = 3.0
#: Normalised (ratio-of-IPC) curves divide out common bias; the
#: validated per-IPC error band is +-5%, so points track within 10%.
MAX_POINT_ERROR = 0.10


def _timed(sampling):
    start = time.perf_counter()
    series = run_simulated(BENCH, slice_grid=SLICE_GRID,
                           trace_length=LENGTH, seed=SEED,
                           sampling=sampling)
    return series, time.perf_counter() - start


def test_bench_sampling_perf_smoke(perf_smoke_dump):
    get_workload(BENCH, LENGTH, SEED)  # pre-warm: no generation in timings

    exact_series, exact_s = _timed(None)
    sampled_series, sampled_s = _timed(DEFAULT_SAMPLING)
    speedup = exact_s / sampled_s

    schedule = SamplingPolicy(DEFAULT_SAMPLING).plan(LENGTH)
    common = {
        "benchmark": BENCH,
        "slice_grid": list(SLICE_GRID),
        "trace_length": LENGTH,
        "seed": SEED,
    }
    exact_path = perf_smoke_dump("perf_smoke_exact.json", {
        **common, "mode": "exact", "wall_s": exact_s,
        "series": {str(s): v for s, v in exact_series.items()},
    })
    perf_smoke_dump("perf_smoke_sampled.json", {
        **common, "mode": "sampled", "wall_s": sampled_s,
        "speedup_vs_exact": speedup,
        "sampling": DEFAULT_SAMPLING.key_fields(),
        "detail_fraction": schedule.detail_fraction,
        "series": {str(s): v for s, v in sampled_series.items()},
    })
    print(f"\nperf-smoke: exact {exact_s:.1f}s, sampled {sampled_s:.1f}s "
          f"-> {speedup:.2f}x (timings next to {exact_path})")

    assert speedup >= MIN_SPEEDUP, (
        f"sampled sweep only {speedup:.2f}x faster than exact "
        f"(exact {exact_s:.1f}s, sampled {sampled_s:.1f}s)"
    )
    for s in SLICE_GRID:
        err = abs(sampled_series[s] - exact_series[s]) / exact_series[s]
        assert err <= MAX_POINT_ERROR, (
            f"slices={s}: sampled point {sampled_series[s]:.4f} vs "
            f"exact {exact_series[s]:.4f} ({err:+.2%})"
        )
