"""The sweep engine: grid expansion, parallel fan-out, cached results.

The engine runs simulation sweeps only: cycle-level grids, ~0.2 s per
grid point, the counterpart of the paper's SSim cluster sweeps behind
Figs 12-13.  They cost enough to pay for a process pool and an on-disk
cache.  :class:`SweepEngine` centralises them:

1. a :class:`SweepSpec` names the axes - benchmarks x cache_kb x slices
   - and expands into :class:`WorkUnit`\\ s, one per benchmark;
2. pending work units fan across a
   ``concurrent.futures.ProcessPoolExecutor``, one future per unit,
   whenever the sweep has two of them and two workers; otherwise they
   evaluate in-process.  ``timeout_s`` bounds the sweep either way (the
   pool module is imported only when a pool is built);
3. every unit is backed by the content-addressed on-disk
   :class:`~repro.engine.cache.ResultCache` - warm runs skip evaluation
   entirely;
4. each sweep returns its own accounting in a :class:`SweepResult`, and
   the ``engine.*`` instruments of the engine's ``obs`` keep the
   running totals.

The analytic ``P(c, s)`` is not an engine unit: the market kernel
(:mod:`repro.economics.tensor`) computes a whole Equation 3 grid in well
under a millisecond, so experiments call the model directly.
"""

from __future__ import annotations

import os
import threading
import time
import traceback as _traceback
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine.cache import ResultCache
from repro.engine.metrics import UnitStat
from repro.obs import OBS_OFF, Observability, now_us
from repro.perfmodel.model import (
    CACHE_GRID_KB,
    ProfileLike,
    SLICE_GRID,
    profile_key,
)
from repro.trace.profiles import BenchmarkProfile

#: How many fresh pools a sweep tries after a worker process dies
#: (``BrokenProcessPool``) before giving up on the remaining units.
DEFAULT_POOL_RETRIES = 2

#: First retry delay after a worker death; doubles per retry, capped.
POOL_RETRY_BACKOFF_S = 0.05
POOL_RETRY_BACKOFF_CAP_S = 1.0

ResultKey = Tuple[Any, ...]


class WorkUnitError(RuntimeError):
    """A work unit failed inside a pool worker.

    Carries the failing unit and the worker's formatted traceback as
    attributes; ``str(exc)`` stays a one-line human-readable summary
    (never a pickled traceback blob).  Failed units are never written to
    the on-disk result cache.
    """

    def __init__(self, message: str, unit: Optional["WorkUnit"] = None,
                 worker_pid: int = 0, worker_traceback: str = ""):
        super().__init__(message)
        self.unit = unit
        self.worker_pid = worker_pid
        self.worker_traceback = worker_traceback


class SweepTimeoutError(RuntimeError):
    """A sweep did not finish inside ``timeout_s``.

    A pool sweep cancels queued units and terminates the stuck worker
    processes before raising, so a hung unit cannot wedge the caller.
    An in-process sweep checks the deadline before each unit: the unit
    running when it passes finishes, and the rest are not started.
    Either way ``pending_units`` names the units that did not run, and
    every unit that finished is already cached.
    """

    def __init__(self, message: str,
                 pending_units: Tuple["WorkUnit", ...] = ()):
        super().__init__(message)
        self.pending_units = pending_units


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable evaluation: a config grid for one benchmark
    through the cycle-level simulator.

    All fields are primitives (plus the frozen, picklable
    :class:`~repro.core.config.SimConfig`), so units pickle cheaply to
    workers and hash deterministically into cache keys.
    """

    profile_fields: Tuple[Tuple[str, Any], ...]
    cache_grid: Tuple[float, ...]
    slice_grid: Tuple[int, ...]
    trace_length: int = 0
    trace_seed: int = 1
    sim_config: Any = None  # Optional[SimConfig]
    #: ``SamplingConfig.key_fields()`` as a sorted item tuple; ``None``
    #: runs exact.  Part of the cache key, so sampled and exact results
    #: can never alias.
    sampling: Optional[Tuple[Tuple[str, Any], ...]] = None

    @property
    def benchmark(self) -> str:
        return dict(self.profile_fields)["name"]

    @property
    def points(self) -> int:
        return len(self.cache_grid) * len(self.slice_grid)

    def result_key(self) -> ResultKey:
        """How this unit's grid is addressed in a :class:`SweepResult`."""
        return (self.benchmark,)

    def key_fields(self) -> Dict[str, Any]:
        """The full content-address basis for the on-disk cache.

        Every result-affecting field is present, and the
        :class:`SimConfig` enters via :meth:`SimConfig.fingerprint` - a
        recursive walk over its dataclass fields - so a config knob
        added later cannot silently alias cache entries.
        """
        from repro.core.config import SimConfig

        sim_config = (self.sim_config if self.sim_config is not None
                      else SimConfig())
        return {
            "profile": list(self.profile_fields),
            "cache_grid": list(self.cache_grid),
            "slice_grid": list(self.slice_grid),
            "trace_length": self.trace_length,
            "trace_seed": self.trace_seed,
            "sim_config": sim_config.fingerprint(),
            "sampling": (list(self.sampling)
                         if self.sampling is not None else None),
        }

    def cache_key(self) -> str:
        return ResultCache.make_key(self.key_fields())


@dataclass(frozen=True)
class SweepSpec:
    """Axes of one sweep: benchmarks x cache_kb x slices, simulated
    cycle by cycle on a ``trace_length``-instruction trace per
    benchmark.  ``benchmarks`` accepts names or raw profiles.
    """

    benchmarks: Tuple[Any, ...]
    cache_grid: Tuple[float, ...] = CACHE_GRID_KB
    slice_grid: Tuple[int, ...] = SLICE_GRID
    trace_length: int = 4000
    trace_seed: int = 1
    sim_config: Any = None  # Optional[SimConfig]

    def expand(self) -> List[WorkUnit]:
        """The spec's work units, in deterministic axis order."""
        cache_grid = tuple(float(c) for c in self.cache_grid)
        slice_grid = tuple(int(s) for s in self.slice_grid)
        return [
            WorkUnit(
                profile_fields=profile_key(bench),
                cache_grid=cache_grid,
                slice_grid=slice_grid,
                trace_length=int(self.trace_length),
                trace_seed=int(self.trace_seed),
                sim_config=self.sim_config,
            )
            for bench in self.benchmarks
        ]


def evaluate_unit(unit: WorkUnit) -> List[List[float]]:
    """Evaluate one work unit; runs in worker processes and in-process.

    Returns JSON-stable rows ``[[cache_kb, slices, ipc], ...]`` in
    (cache outer, slice inner) grid order.
    """
    # Imported on first use: building an engine does not load the
    # simulator.
    from repro.core.simulator import simulate
    from repro.sampling import SamplingConfig, simulate_sampled
    from repro.trace.materialize import get_workload

    profile = BenchmarkProfile(**dict(unit.profile_fields))
    sampling = (SamplingConfig(**dict(unit.sampling))
                if unit.sampling is not None else None)
    rows = []
    for c in unit.cache_grid:
        for s in unit.slice_grid:
            # Served from the process-local workload LRU, so every
            # grid point of this unit (and later units for the same
            # profile in this worker) reuses one generated trace.
            warmup, trace = get_workload(
                profile, unit.trace_length, unit.trace_seed)
            if sampling is not None:
                result = simulate_sampled(
                    trace, num_slices=int(s), l2_cache_kb=float(c),
                    sampling=sampling, config=unit.sim_config,
                    warmup_addresses=warmup)
            else:
                result = simulate(
                    trace, num_slices=int(s), l2_cache_kb=float(c),
                    config=unit.sim_config, warmup_addresses=warmup)
            rows.append([c, s, result.ipc])
    return rows


def _fits(unit: WorkUnit, value: Any) -> bool:
    """Whether a cached value has the shape :func:`evaluate_unit`
    returns for ``unit``: a list of ``[number, number, number]`` rows
    that covers its grid exactly once."""
    if not isinstance(value, list) or not all(
            isinstance(row, list) and len(row) == 3
            and all(type(x) in (int, float) for x in row)
            for row in value):
        return False
    cells = [(c, s) for c, s, _ in value]
    return len(cells) == unit.points and set(cells) == {
        (c, s) for c in unit.cache_grid for s in unit.slice_grid}


def _workload_counters() -> Dict[str, float]:
    """Snapshot of this process's workload LRU and generator counters."""
    from repro.trace.materialize import cache_stats

    lru = cache_stats()
    return {
        "lru_hits": lru["hits"],
        "lru_misses": lru["misses"],
        "generations": lru["generations"],
        "generation_s": lru["generation_s"],
    }


def _evaluate_tracked(unit: "WorkUnit", submitted: float
                      ) -> Dict[str, Any]:
    """Worker-side evaluation of one unit.

    Measures the unit's queue wait (submit-to-start on the shared
    ``CLOCK_MONOTONIC``, so worker timestamps line up with the
    parent's), its ``time.monotonic()`` start and eval time, plus the
    deltas of the workload LRU/generator counters so the parent can
    attribute where the unit's trace came from.  An exception becomes a
    structured failure record; the parent re-raises it as a one-line
    :class:`WorkUnitError` instead of a pickled remote traceback.
    """
    started = time.monotonic()
    outcome: Dict[str, Any] = {
        "pid": os.getpid(),
        "started": started,
        "queue_wait_s": max(0.0, started - submitted),
    }
    before = _workload_counters()
    try:
        rows = evaluate_unit(unit)
    except Exception as exc:
        outcome.update({
            "ok": False,
            "eval_s": time.monotonic() - started,
            "error_type": type(exc).__name__,
            "error_msg": str(exc),
            "traceback": _traceback.format_exc(),
        })
    else:
        outcome.update({"ok": True, "rows": rows,
                        "eval_s": time.monotonic() - started})
    after = _workload_counters()
    outcome["workload"] = {k: after[k] - before[k] for k in after}
    return outcome


@dataclass(frozen=True)
class SweepResult:
    """All evaluated grids of one sweep, plus its accounting."""

    values: Dict[ResultKey, Dict[Tuple[float, int], float]]
    units: int
    points: int
    cache_hits: int
    cache_misses: int
    elapsed_s: float
    workers: int
    parallel: bool
    #: Per-unit evaluation telemetry (cache hits included, eval_s == 0).
    unit_stats: Tuple[UnitStat, ...] = ()
    #: Workload LRU and generator totals across all evaluated units
    #: (lru_hits, lru_misses, generations, generation_s); empty for
    #: fully-cached sweeps.
    workload_stats: Dict[str, float] = field(default_factory=dict)
    #: Scheduler accounting: fresh pools started after a worker died.
    sched_stats: Dict[str, float] = field(default_factory=dict)

    def grid(self, benchmark: ProfileLike
             ) -> Dict[Tuple[float, int], float]:
        """One benchmark's ``{(cache_kb, slices): value}`` grid."""
        name = benchmark.name if isinstance(benchmark, BenchmarkProfile) \
            else str(benchmark)
        return self.values[(name,)]


class SweepEngine:
    """Expands sweep specs, schedules work units, caches results."""

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 obs: Optional[Observability] = None,
                 timeout_s: Optional[float] = None,
                 sampling: Any = None,
                 backend: Optional[str] = None,
                 pool_retries: int = DEFAULT_POOL_RETRIES,
                 store: Any = None):
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1")
        if pool_retries < 0:
            raise ValueError("pool_retries cannot be negative")
        if timeout_s is not None and not timeout_s > 0:
            raise ValueError(
                f"timeout_s must be > 0 (None disables it), got {timeout_s}")
        # No unit reads an economics backend; the keyword stays for
        # callers that pass backend="numpy".
        from repro.economics.backend import resolve_backend

        resolve_backend(backend)
        # Workloads come from each process's LRU or the generator; the
        # keyword stays for callers that pass store=None.
        if store is not None:
            raise ValueError(
                f"unknown workload store {store!r}; workers regenerate "
                "workloads on an LRU miss (pass None)")
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.cache = cache if cache is not None else ResultCache()
        self.obs = obs if obs is not None else OBS_OFF
        self.timeout_s = timeout_s
        #: Optional :class:`~repro.sampling.SamplingConfig` applied to
        #: every simulation work unit this engine schedules.  ``None``
        #: keeps simulation units exact (the default for golden paths).
        self.sampling = sampling
        #: Transient worker deaths tolerated per sweep before the
        #: remaining units are surfaced as a :class:`WorkUnitError`.
        self.pool_retries = pool_retries
        # Pre-bound instruments: null objects when obs is off, so the
        # hot scheduling loop never branches on enablement.
        scope = self.obs.scope("engine")
        self._c_sweeps = scope.counter("sweeps")
        self._c_units = scope.counter("units")
        self._c_points = scope.counter("points")
        self._c_cache_hits = scope.counter("cache.hits")
        self._c_cache_misses = scope.counter("cache.misses")
        self._h_eval = scope.histogram("unit_eval_s")
        self._h_queue = scope.histogram("unit_queue_wait_s")
        self._t_sweep = scope.timer("sweep_s")
        scope.gauge("cache.corrupt", lambda: self.cache.corrupt)

    # ------------------------------------------------------------------
    # core scheduling
    # ------------------------------------------------------------------

    def run(self, spec: SweepSpec) -> SweepResult:
        """Evaluate a spec: expand, consult the cache, fan out the rest.

        Raises :class:`WorkUnitError` when a unit fails (its result never
        reaches the cache; other completed units are still cached), and
        :class:`SweepTimeoutError` when ``timeout_s`` expires with units
        outstanding, in a pool (stuck workers are terminated, queued
        units cancelled) or in-process (checked before each unit).
        """
        start = time.perf_counter()
        sweep_start_us = now_us()
        units = spec.expand()
        if self.sampling is not None:
            sampling_key = tuple(sorted(self.sampling.key_fields().items()))
            units = [replace(unit, sampling=sampling_key)
                     for unit in units]
        # A benchmark named twice is one unit: one evaluation, one grid.
        units = list(dict.fromkeys(units))
        results: Dict[WorkUnit, List[List[float]]] = {}
        pending: List[WorkUnit] = []
        stats: List[UnitStat] = []
        hits = 0
        for unit in units:
            key = unit.cache_key()
            cached = self.cache.get(key)
            if cached is not None and not _fits(unit, cached):
                # The entry parses but is not this unit's rows.
                self.cache.reject(key)
                cached = None
            if cached is not None:
                results[unit] = cached
                stats.append(UnitStat(
                    benchmark=unit.benchmark, points=unit.points,
                    cached=True,
                ))
                hits += 1
            else:
                pending.append(unit)

        workers = min(self.jobs, len(pending))
        parallel = workers > 1
        outcomes_by_unit: Dict[WorkUnit, Dict[str, Any]] = {}
        sched: Dict[str, float] = {"pool_retries": 0}
        if parallel:
            outcomes_by_unit = self._run_parallel(pending, workers, sched)
        else:
            deadline = self._deadline()
            for index, unit in enumerate(pending):
                if deadline is not None and time.monotonic() >= deadline:
                    raise self._timed_out(pending[index:], len(pending))
                self._collect(unit, _evaluate_tracked(
                    unit, time.monotonic()), outcomes_by_unit)

        failure: Optional[Tuple[WorkUnit, Dict[str, Any]]] = None
        workload_totals: Dict[str, float] = {}
        for unit in pending:
            outcome = outcomes_by_unit.get(unit)
            if outcome is None:
                # Lost to a pool that exhausted its retries before
                # reaching this unit.
                continue
            stat = UnitStat(
                benchmark=unit.benchmark, points=unit.points, cached=False,
                worker_pid=outcome["pid"],
                queue_wait_s=outcome["queue_wait_s"],
                eval_s=outcome["eval_s"],
            )
            stats.append(stat)
            self._h_eval.observe(stat.eval_s)
            self._h_queue.observe(stat.queue_wait_s)
            self._trace_unit(unit, outcome)
            for name, delta in (outcome.get("workload") or {}).items():
                workload_totals[name] = (
                    workload_totals.get(name, 0) + delta)
            if outcome["ok"]:
                # Already cached eagerly by _collect the moment it
                # completed; a failed unit never reaches the cache.
                results[unit] = outcome["rows"]
            elif failure is None:
                failure = (unit, outcome)
        if failure is not None:
            unit, outcome = failure
            raise WorkUnitError(
                f"work unit {unit.benchmark!r} failed in "
                f"worker {outcome['pid']}: {outcome['error_type']}: "
                f"{outcome['error_msg']}",
                unit=unit,
                worker_pid=outcome["pid"],
                worker_traceback=outcome["traceback"],
            )

        values: Dict[ResultKey, Dict[Tuple[float, int], float]] = {}
        for unit in units:
            values[unit.result_key()] = {
                (float(c), int(s)): v for c, s, v in results[unit]
            }
        elapsed = time.perf_counter() - start
        sweep = SweepResult(
            values=values,
            units=len(units),
            points=sum(u.points for u in units),
            cache_hits=hits,
            cache_misses=len(pending),
            elapsed_s=elapsed,
            workers=workers,
            parallel=parallel,
            unit_stats=tuple(stats),
            workload_stats=workload_totals,
            sched_stats=dict(sched),
        )
        self._c_sweeps.inc()
        self._c_units.inc(len(units))
        self._c_points.inc(sweep.points)
        self._c_cache_hits.inc(hits)
        self._c_cache_misses.inc(len(pending))
        self._t_sweep.add(elapsed)
        if self.obs.tracing:
            self.obs.tracer.complete(
                "sweep.simulation",
                ts=sweep_start_us, dur=elapsed * 1e6, cat="engine",
                args={"units": sweep.units, "points": sweep.points,
                      "cache_hits": hits, "workers": workers,
                      "parallel": parallel},
            )
        return sweep

    def _run_parallel(self, pending: List["WorkUnit"], workers: int,
                      sched: Dict[str, float]
                      ) -> Dict["WorkUnit", Dict[str, Any]]:
        """Fan pending units across a process pool, tracked and bounded.

        Every unit is its own future, submitted in expansion order and
        harvested as it completes - a completed unit is cached
        *immediately*, so a later crash or timeout never loses finished
        work.  Between completions the loop blocks in
        ``wait(FIRST_COMPLETED)``, bounded by the sweep deadline when
        ``timeout_s`` is set.

        On timeout the pool is abandoned without waiting (queued futures
        cancelled, worker processes terminated) so a hung unit cannot
        wedge the sweep's caller.

        A dying worker (``BrokenProcessPool``) is treated as transient:
        completed units are kept, and the un-run remainder is retried
        on a fresh pool up to ``pool_retries`` times with capped
        exponential backoff.  If the deaths persist, the first un-run
        unit is surfaced as a failed outcome.
        """
        # Imported here: the pool machinery costs ~25 ms to import, and
        # an in-process sweep never needs it.
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import (
            BrokenProcessPool,
            ProcessPoolExecutor,
        )

        outcomes_by_unit: Dict["WorkUnit", Dict[str, Any]] = {}
        deadline = self._deadline()
        attempt = 0
        while True:
            pool = ProcessPoolExecutor(max_workers=workers)
            crashed = False
            try:
                futures = {
                    pool.submit(_evaluate_tracked, unit,
                                time.monotonic()): unit
                    for unit in pending if unit not in outcomes_by_unit
                }
                while futures and not crashed:
                    timeout = None
                    if deadline is not None:
                        # wait() overflows past TIMEOUT_MAX (timeout_s=inf).
                        timeout = min(max(0.0, deadline - time.monotonic()),
                                      threading.TIMEOUT_MAX)
                    done, _ = wait(futures, timeout=timeout,
                                   return_when=FIRST_COMPLETED)
                    if not done:
                        raise self._timed_out(
                            [u for u in pending
                             if u not in outcomes_by_unit], len(pending))
                    for fut in done:
                        unit = futures.pop(fut)
                        try:
                            outcome = fut.result()
                        except BrokenProcessPool:
                            crashed = True
                            continue
                        self._collect(unit, outcome, outcomes_by_unit)
                if crashed:
                    # A worker died.  Units that completed around the
                    # crash hold good results; keep them.
                    for fut, unit in futures.items():
                        if fut.done() and fut.exception() is None:
                            self._collect(unit, fut.result(),
                                          outcomes_by_unit)
            except BaseException:
                self._abandon_pool(pool)
                raise
            if not crashed:
                pool.shutdown(wait=True)
                return outcomes_by_unit
            # Retry the un-run remainder on a fresh pool; give up after
            # ``pool_retries``.
            self._abandon_pool(pool)
            remaining = [u for u in pending if u not in outcomes_by_unit]
            if not remaining:
                return outcomes_by_unit
            if attempt >= self.pool_retries:
                first = remaining[0]
                outcomes_by_unit[first] = {
                    "pid": 0,
                    "started": time.monotonic(),
                    "queue_wait_s": 0.0,
                    "eval_s": 0.0,
                    "ok": False,
                    "error_type": "BrokenProcessPool",
                    "error_msg": (
                        f"worker process died evaluating "
                        f"{first.benchmark!r} and kept dying across "
                        f"{attempt + 1} pool attempts"),
                    "traceback": "",
                }
                return outcomes_by_unit
            attempt += 1
            sched["pool_retries"] += 1
            delay = min(POOL_RETRY_BACKOFF_CAP_S,
                        POOL_RETRY_BACKOFF_S * (2 ** (attempt - 1)))
            time.sleep(delay)

    def _deadline(self) -> Optional[float]:
        """``time.monotonic()`` by which the sweep must end, if bounded."""
        if self.timeout_s is None:
            return None
        return time.monotonic() + self.timeout_s

    def _timed_out(self, stuck: Sequence["WorkUnit"],
                   total: int) -> SweepTimeoutError:
        names = ", ".join(u.benchmark for u in stuck[:5]) + (
            "..." if len(stuck) > 5 else "")
        return SweepTimeoutError(
            f"sweep timed out after {self.timeout_s:g}s with "
            f"{len(stuck)} of {total} units outstanding ({names})",
            pending_units=tuple(stuck),
        )

    def _collect(self, unit: "WorkUnit", outcome: Dict[str, Any],
                 outcomes_by_unit: Dict["WorkUnit", Dict[str, Any]]
                 ) -> None:
        """Record a finished unit and cache it the moment it lands
        (success only - a failed unit must never poison the cache)."""
        outcomes_by_unit[unit] = outcome
        if outcome["ok"]:
            self.cache.put(unit.cache_key(), outcome["rows"],
                           key_fields=unit.key_fields())

    @staticmethod
    def _abandon_pool(pool: Any) -> None:
        """Tear a ``ProcessPoolExecutor`` down without waiting on its
        (possibly hung) workers."""
        pool.shutdown(wait=False, cancel_futures=True)
        try:
            processes = list((pool._processes or {}).values())
        except Exception:
            processes = []
        for proc in processes:
            try:
                proc.terminate()
            except Exception:
                pass

    def _trace_unit(self, unit: "WorkUnit",
                    outcome: Dict[str, Any]) -> None:
        """Emit one complete-span trace event per evaluated unit, on the
        worker pid's track, positioned by its monotonic start time."""
        if not self.obs.tracing:
            return
        from repro.obs.profiling import _ORIGIN

        self.obs.tracer.complete(
            f"unit.{unit.benchmark}",
            ts=(outcome["started"] - _ORIGIN) * 1e6,
            dur=outcome["eval_s"] * 1e6, cat="engine",
            tid=outcome["pid"],
            args={"points": unit.points,
                  "queue_wait_s": round(outcome["queue_wait_s"], 6),
                  "ok": outcome["ok"]},
        )

    # ------------------------------------------------------------------
    # convenience maps
    # ------------------------------------------------------------------

    def simulation_map(self, benchmarks: Sequence[ProfileLike],
                       cache_grid: Sequence[float],
                       slice_grid: Sequence[int],
                       trace_length: int, trace_seed: int = 1,
                       sim_config: Any = None) -> SweepResult:
        """Cycle-level ``IPC(c, s)`` grids for several benchmarks.

        Runs the simulator per grid point: sampled when the engine was
        built with ``sampling=...``, exact otherwise.
        """
        return self.run(
            SweepSpec(
                benchmarks=tuple(benchmarks),
                cache_grid=tuple(cache_grid),
                slice_grid=tuple(slice_grid),
                trace_length=trace_length,
                trace_seed=trace_seed,
                sim_config=sim_config,
            )
        )
