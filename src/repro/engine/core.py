"""The sweep engine: grid expansion, parallel fan-out, cached results.

The paper's evaluation is an exhaustive sweep machine: every figure and
table re-evaluates ``P(c, s)`` (and utilities on top of it) over the
Equation 3 grid.  :class:`SweepEngine` centralises that:

1. a :class:`SweepSpec` names the axes - benchmarks x cache_kb x slices,
   optionally x utility x market - and expands into :class:`WorkUnit`\\ s,
   one per (benchmark[, utility, market]) chunk over the config grid;
2. work units are grouped into workload-affinity batches that fan
   across a ``concurrent.futures.ProcessPoolExecutor``, falling back to
   in-process serial evaluation for small grids (pool startup costs more
   than tiny sweeps);
3. every unit is backed by the content-addressed on-disk
   :class:`~repro.engine.cache.ResultCache` - warm runs skip evaluation
   entirely;
4. every sweep is recorded in :class:`~repro.engine.metrics.EngineMetrics`
   (units, points, hits/misses, wall time, workers).

Experiments usually do not call :meth:`SweepEngine.run` directly; they
take a :class:`GridModel` from :meth:`SweepEngine.grid_model` - an
:class:`~repro.perfmodel.model.AnalyticModel` drop-in whose
``performance()`` serves from an engine-filled table - and pass it down
existing ``model=`` parameters.
"""

from __future__ import annotations

import os
import threading
import time
import traceback as _traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    wait as futures_wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.cache import ResultCache
from repro.engine.metrics import EngineMetrics, SweepRecord, UnitStat
from repro.obs import OBS_OFF, Observability, now_us
from repro.perfmodel.model import (
    AnalyticModel,
    CACHE_GRID_KB,
    ProfileLike,
    SLICE_GRID,
    calibration_constants,
    profile_key,
)
from repro.trace.profiles import BenchmarkProfile

#: Below this many pending grid points a sweep runs serially in-process;
#: process-pool startup dwarfs the evaluation for small grids.
DEFAULT_PARALLEL_THRESHOLD = 1024

#: How many fresh pools a sweep tries after a worker process dies
#: (``BrokenProcessPool``) before giving up on the remaining units.
DEFAULT_POOL_RETRIES = 2

#: First retry delay after a worker death; doubles per retry, capped.
POOL_RETRY_BACKOFF_S = 0.05
POOL_RETRY_BACKOFF_CAP_S = 1.0

KindKey = Tuple[Any, ...]


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
    """A parallel sweep did not finish inside ``timeout_s``.

    The engine cancels queued units and terminates the stuck worker
    processes before raising, so a hung unit cannot wedge the caller.
    """

    def __init__(self, message: str,
                 pending_units: Tuple["WorkUnit", ...] = ()):
        super().__init__(message)
        self.pending_units = pending_units


def _norm_utility(utility: Any) -> Tuple[str, float]:
    """(name, perf_exponent) from a UtilityFunction-like object."""
    return (str(utility.name), float(utility.perf_exponent))


def _norm_market(market: Any) -> Tuple[str, float, float, float]:
    """(name, slice_price, bank_price, fixed_cost) from a Market-like."""
    return (str(market.name), float(market.slice_price),
            float(market.bank_price), float(market.fixed_cost))


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable evaluation: a config grid for one benchmark
    (optionally under one utility function in one market, or through
    the cycle-level simulator for ``kind="simulation"``).

    All fields are primitives (plus the frozen, picklable
    :class:`~repro.core.config.SimConfig` for simulation units), so
    units pickle cheaply to workers and hash deterministically into
    cache keys.
    """

    kind: str  # "performance" | "utility" | "simulation" | "service"
    profile_fields: Tuple[Tuple[str, Any], ...]
    cache_grid: Tuple[float, ...]
    slice_grid: Tuple[int, ...]
    calibration: Tuple[Tuple[str, float], ...]
    utility: Optional[Tuple[str, float]] = None
    market: Optional[Tuple[str, float, float, float]] = None
    budget: float = 0.0
    #: Simulation-unit parameters; inert for analytic kinds.
    trace_length: int = 0
    trace_seed: int = 1
    sim_config: Any = None  # Optional[SimConfig]
    #: ``SamplingConfig.key_fields()`` as a sorted item tuple; ``None``
    #: runs exact.  Part of the cache key, so sampled and exact results
    #: can never alias.
    sampling: Optional[Tuple[Tuple[str, Any], ...]] = None
    #: Streaming-service shard parameters as a sorted item tuple
    #: (``kind="service"``); inert ``None`` for grid kinds.
    service: Optional[Tuple[Tuple[str, Any], ...]] = None
    #: Which shard of the sharded stream this unit drives.
    shard: int = 0

    @property
    def benchmark(self) -> str:
        return dict(self.profile_fields)["name"]

    @property
    def points(self) -> int:
        if self.kind == "service":
            # Events, not grid cells, are the unit of work for a
            # stream shard - this is what the parallel threshold and
            # the metrics ledger should count.
            return int(dict(self.service or ()).get("num_events", 1))
        return len(self.cache_grid) * len(self.slice_grid)

    def result_key(self) -> KindKey:
        """How this unit's grid is addressed in a :class:`SweepResult`."""
        if self.kind in ("performance", "simulation", "service"):
            return (self.benchmark,)
        return (self.benchmark, self.utility[0], self.market[0])

    def key_fields(self) -> Dict[str, Any]:
        """The full content-address basis for the on-disk cache.

        Every result-affecting field is present *unconditionally* (the
        simulation fields hold inert defaults for analytic kinds), and
        the :class:`SimConfig` enters via :meth:`SimConfig.fingerprint`
        - a recursive walk over its dataclass fields - so a config knob
        added later cannot silently alias cache entries.
        """
        from repro.core.config import SimConfig

        sim_config = self.sim_config
        if sim_config is None and self.kind == "simulation":
            sim_config = SimConfig()
        return {
            "kind": self.kind,
            "profile": list(self.profile_fields),
            "cache_grid": list(self.cache_grid),
            "slice_grid": list(self.slice_grid),
            "calibration": list(self.calibration),
            "utility": list(self.utility) if self.utility else None,
            "market": list(self.market) if self.market else None,
            "budget": self.budget,
            "trace_length": self.trace_length,
            "trace_seed": self.trace_seed,
            "sim_config": (sim_config.fingerprint()
                           if sim_config is not None else None),
            "sampling": (list(self.sampling)
                         if self.sampling is not None else None),
            "service": (list(self.service)
                        if self.service is not None else None),
            "shard": self.shard,
        }

    def cache_key(self) -> str:
        return ResultCache.make_key(self.key_fields())


@dataclass(frozen=True)
class SweepSpec:
    """Axes of one sweep: benchmarks x cache_kb x slices [x utility x
    market].  ``benchmarks`` accepts names or raw profiles; utilities
    and markets are duck-typed (any object carrying the paper's fields).
    """

    benchmarks: Tuple[Any, ...]
    cache_grid: Tuple[float, ...] = CACHE_GRID_KB
    slice_grid: Tuple[int, ...] = SLICE_GRID
    utilities: Tuple[Any, ...] = ()
    markets: Tuple[Any, ...] = ()
    budget: float = 0.0
    #: Evaluate through the cycle-level simulator instead of the
    #: analytic model ("simulation" work units).
    simulate: bool = False
    trace_length: int = 4000
    trace_seed: int = 1
    sim_config: Any = None  # Optional[SimConfig]
    #: Streaming-service parameters; when set the spec expands into
    #: ``shards`` independent ``kind="service"`` units (benchmarks and
    #: grids are ignored).  Values must be primitives - they become the
    #: unit's frozen, cache-keyed ``service`` tuple.  A ``couple > 1``
    #: entry makes each unit run a whole coupled shard group (N
    #: services sharing a global price vector) in-process; the stream
    #: stats schema is stamped by ``STATS_VERSION`` in
    #: ``repro.experiments.datacenter_stream``, so schema changes
    #: invalidate cached unit results instead of misreading them.
    service: Optional[Dict[str, Any]] = None
    shards: int = 1

    def expand(self, model: Optional[AnalyticModel] = None
               ) -> List[WorkUnit]:
        """The spec's work units, in deterministic axis order."""
        if self.service is not None:
            base = dict(self.service)
            seed0 = int(base.get("seed", 1))
            units = []
            for shard in range(max(1, int(self.shards))):
                params = dict(base)
                # Shards are independent streams: decorrelate by seed.
                params["seed"] = seed0 + shard
                units.append(WorkUnit(
                    kind="service",
                    profile_fields=(("name", f"stream/shard{shard}"),),
                    cache_grid=(),
                    slice_grid=(),
                    calibration=(),
                    service=tuple(sorted(params.items())),
                    shard=shard,
                ))
            return units
        calibration = model_calibration(model or AnalyticModel())
        cache_grid = tuple(float(c) for c in self.cache_grid)
        slice_grid = tuple(int(s) for s in self.slice_grid)
        units: List[WorkUnit] = []
        for bench in self.benchmarks:
            fields = profile_key(bench)
            if self.simulate:
                # Analytic calibration cannot affect a simulation; keep
                # it out of the key so model tweaks don't cold the cache.
                units.append(WorkUnit(
                    kind="simulation",
                    profile_fields=fields,
                    cache_grid=cache_grid,
                    slice_grid=slice_grid,
                    calibration=(),
                    trace_length=int(self.trace_length),
                    trace_seed=int(self.trace_seed),
                    sim_config=self.sim_config,
                ))
                continue
            if not self.utilities and not self.markets:
                units.append(WorkUnit(
                    kind="performance",
                    profile_fields=fields,
                    cache_grid=cache_grid,
                    slice_grid=slice_grid,
                    calibration=calibration,
                ))
                continue
            for utility in self.utilities:
                for market in self.markets:
                    units.append(WorkUnit(
                        kind="utility",
                        profile_fields=fields,
                        cache_grid=cache_grid,
                        slice_grid=slice_grid,
                        calibration=calibration,
                        utility=_norm_utility(utility),
                        market=_norm_market(market),
                        budget=float(self.budget),
                    ))
        return units


def model_calibration(model: AnalyticModel
                      ) -> Tuple[Tuple[str, float], ...]:
    """Calibration fingerprint: module constants + instance parameters."""
    constants = dict(calibration_constants())
    constants["comm_tolerance"] = float(model.comm_tolerance)
    constants["mlp_per_slice"] = float(model.mlp_per_slice)
    return tuple(sorted(constants.items()))


def evaluate_unit(unit: WorkUnit) -> List[List[float]]:
    """Evaluate one work unit; runs in worker processes and in-process.

    Returns JSON-stable rows ``[[cache_kb, slices, value], ...]`` in
    (cache outer, slice inner) grid order.
    """
    if unit.kind == "service":
        # Lazy: the engine has no load-time dependency on the cloud
        # service (experiments sit above the engine in the layering).
        from repro.experiments.datacenter_stream import evaluate_shard

        return evaluate_shard(dict(unit.service or ()))

    fields = dict(unit.profile_fields)
    profile = BenchmarkProfile(**fields)

    def _model() -> AnalyticModel:
        # Simulation units carry an empty calibration on purpose (the
        # analytic model cannot affect them); only analytic kinds may
        # build the model from it.
        calibration = dict(unit.calibration)
        return AnalyticModel(
            comm_tolerance=calibration["comm_tolerance"],
            mlp_per_slice=calibration["mlp_per_slice"],
        )

    if unit.kind == "performance":
        model = _model()
        return [
            [c, s, model.performance(profile, c, s)]
            for c in unit.cache_grid
            for s in unit.slice_grid
        ]
    if unit.kind == "simulation":
        # Lazy imports: analytic sweeps must not pay for the simulator.
        from repro.core.simulator import simulate
        from repro.sampling import SamplingConfig, simulate_sampled
        from repro.trace.materialize import get_workload

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
    if unit.kind == "utility":
        # Import lazily so the engine has no load-time economics
        # dependency (economics imports the engine).
        from repro.economics.market import Market
        from repro.economics.tensor import (
            performance_tensor,
            utility_matrix,
            vcores_matrix,
        )
        from repro.economics.utility import UtilityFunction

        uname, exponent = unit.utility
        mname, slice_price, bank_price, fixed_cost = unit.market
        utility = UtilityFunction(name=uname, perf_exponent=exponent)
        market = Market(name=mname, slice_price=slice_price,
                        bank_price=bank_price, fixed_cost=fixed_cost)
        perf = performance_tensor([profile], unit.cache_grid,
                                  unit.slice_grid, model=_model())[0]
        vcores = vcores_matrix(market, unit.budget, unit.cache_grid,
                               unit.slice_grid)
        util = utility_matrix(perf, vcores, utility)
        return [
            [c, s, float(util[ci, si])]
            for ci, c in enumerate(unit.cache_grid)
            for si, s in enumerate(unit.slice_grid)
        ]
    raise ValueError(f"unknown work-unit kind {unit.kind!r}")


def _affinity_key(unit: "WorkUnit") -> Tuple[Any, ...]:
    """Which workload a unit touches; units sharing it share a batch.

    Simulation units are keyed by their generated workload (profile,
    length, seed) - NOT by grid/sampling/config - so every unit that
    would regenerate the same trace lands on one worker and reuses its
    process-local LRU entry.  Analytic kinds key by profile; service
    shards are independent streams and never batch together.
    """
    if unit.kind == "simulation":
        return ("workload", unit.profile_fields, unit.trace_length,
                unit.trace_seed)
    if unit.kind == "service":
        return ("service", unit.shard, unit.service)
    return ("profile", unit.profile_fields)


def _make_batches(pending: Sequence["WorkUnit"],
                  workers: int) -> List[List["WorkUnit"]]:
    """Group units into affinity batches, split for parallelism,
    ordered most-points-first.

    Units sharing an :func:`_affinity_key` (same generated workload)
    start in one batch so a single worker generates the trace once and
    its siblings ride the process LRU.  The largest batches are then
    halved until there are at least ``min(workers, len(pending))`` of
    them - affinity never idles a worker, at the price of the split
    batch's second half regenerating the workload in its own worker.
    A sweep's units are all of one kind, so a batch's point count is
    its cost: sorting by it starts the longest work first (LPT
    scheduling).
    """
    groups: Dict[Tuple[Any, ...], List[WorkUnit]] = {}
    for unit in pending:
        groups.setdefault(_affinity_key(unit), []).append(unit)
    batches = list(groups.values())
    target = min(workers, len(pending))
    while len(batches) < target:
        largest = max(batches, key=len)
        if len(largest) < 2:
            break
        batches.remove(largest)
        half = len(largest) // 2
        batches.append(largest[:half])
        batches.append(largest[half:])
    batches.sort(key=lambda batch: sum(u.points for u in batch),
                 reverse=True)
    return batches


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


def _evaluate_batch_tracked(
        payload: Tuple[Tuple["WorkUnit", ...], float]
) -> List[Dict[str, Any]]:
    """Worker-side evaluation of one affinity batch.

    Evaluates every unit of the batch in order (a failing unit is
    recorded and does not abort its siblings), measuring per-unit queue
    wait (submit-to-start on the shared ``CLOCK_MONOTONIC``, so worker
    timestamps line up with the parent's) and eval time, plus the deltas
    of the workload LRU/generator counters so the parent can attribute
    where each unit's trace came from.  An exception becomes a
    structured failure record; the parent re-raises it as a one-line
    :class:`WorkUnitError` instead of a pickled remote traceback.
    """
    units, submitted = payload
    pid = os.getpid()
    outcomes: List[Dict[str, Any]] = []
    for unit in units:
        started = time.monotonic()
        base: Dict[str, Any] = {
            "pid": pid,
            "queue_wait_s": max(0.0, started - submitted),
        }
        before = _workload_counters()
        try:
            rows = evaluate_unit(unit)
        except Exception as exc:
            base.update({
                "ok": False,
                "eval_s": time.monotonic() - started,
                "error_type": type(exc).__name__,
                "error_msg": str(exc),
                "traceback": _traceback.format_exc(),
            })
        else:
            base.update({"ok": True, "rows": rows,
                         "eval_s": time.monotonic() - started})
        after = _workload_counters()
        base["workload"] = {k: after[k] - before[k] for k in after}
        outcomes.append(base)
    return outcomes


@dataclass(frozen=True)
class SweepResult:
    """All evaluated grids of one sweep, plus its accounting."""

    values: Dict[KindKey, Dict[Tuple[float, int], float]]
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
    #: Scheduler accounting: affinity batches formed and fresh pools
    #: started after a worker died.
    sched_stats: Dict[str, float] = field(default_factory=dict)

    def grid(self, benchmark: ProfileLike, utility: Any = None,
             market: Any = None) -> Dict[Tuple[float, int], float]:
        """One benchmark's ``{(cache_kb, slices): value}`` grid."""
        name = benchmark.name if isinstance(benchmark, BenchmarkProfile) \
            else str(benchmark)
        if utility is None and market is None:
            return self.values[(name,)]
        uname = utility if isinstance(utility, str) else utility.name
        mname = market if isinstance(market, str) else market.name
        return self.values[(name, uname, mname)]


class SweepEngine:
    """Expands sweep specs, schedules work units, caches results."""

    def __init__(self, jobs: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 parallel_threshold: int = DEFAULT_PARALLEL_THRESHOLD,
                 metrics: Optional[EngineMetrics] = None,
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
        # Utility units always run on the market kernel; the keyword
        # stays for callers that pass backend="numpy".
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
        self.parallel_threshold = parallel_threshold
        self.metrics = metrics if metrics is not None else EngineMetrics()
        self.obs = obs if obs is not None else OBS_OFF
        self.timeout_s = timeout_s
        #: Optional :class:`~repro.sampling.SamplingConfig` applied to
        #: every simulation work unit this engine schedules.  ``None``
        #: keeps simulation units exact (the default for golden paths).
        self.sampling = sampling
        #: Transient worker deaths tolerated per sweep before the
        #: remaining units are surfaced as a :class:`WorkUnitError`.
        self.pool_retries = pool_retries
        # Units served from a worker's workload LRU, exported as a gauge.
        self._affinity_hits = 0
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
        scope.gauge("sched.affinity_hits", lambda: self._affinity_hits)
        scope.gauge("cache.corrupt", lambda: self.cache.corrupt)

    # ------------------------------------------------------------------
    # core scheduling
    # ------------------------------------------------------------------

    def run(self, spec: SweepSpec,
            model: Optional[AnalyticModel] = None) -> SweepResult:
        """Evaluate a spec: expand, consult the cache, fan out the rest.

        Raises :class:`WorkUnitError` when a unit fails (its result never
        reaches the cache; other completed units are still cached), and
        :class:`SweepTimeoutError` when ``timeout_s`` expires with units
        outstanding (stuck workers are terminated, queued units
        cancelled).
        """
        start = time.perf_counter()
        sweep_start_us = now_us()
        units = spec.expand(model)
        if self.sampling is not None:
            sampling_key = tuple(sorted(self.sampling.key_fields().items()))
            units = [
                replace(unit, sampling=sampling_key)
                if unit.kind == "simulation" and unit.sampling is None
                else unit
                for unit in units
            ]
        results: Dict[WorkUnit, List[List[float]]] = {}
        pending: List[WorkUnit] = []
        stats: List[UnitStat] = []
        hits = 0
        for unit in units:
            cached = self.cache.get(unit.cache_key())
            if cached is not None:
                results[unit] = cached
                stats.append(UnitStat(
                    benchmark=unit.benchmark, kind=unit.kind,
                    points=unit.points, cached=True,
                ))
                hits += 1
            else:
                pending.append(unit)

        pending_points = sum(u.points for u in pending)
        workers = min(self.jobs, len(pending)) if pending else 0
        parallel = (workers > 1
                    and pending_points >= self.parallel_threshold)
        outcomes_by_unit: Dict[WorkUnit, Dict[str, Any]] = {}
        sched: Dict[str, float] = {"batches": 0, "pool_retries": 0}
        if parallel:
            outcomes_by_unit = self._run_parallel(pending, workers, sched)
        else:
            workers = 1 if pending else 0
            for unit in pending:
                outcomes = _evaluate_batch_tracked(
                    ((unit,), time.monotonic()))
                self._collect((unit,), outcomes, outcomes_by_unit)

        failure: Optional[Tuple[WorkUnit, Dict[str, Any]]] = None
        workload_totals: Dict[str, float] = {}
        for unit in pending:
            outcome = outcomes_by_unit.get(unit)
            if outcome is None:
                # Lost to a pool that exhausted its retries before
                # reaching this unit.
                continue
            stat = UnitStat(
                benchmark=unit.benchmark, kind=unit.kind,
                points=unit.points, cached=False,
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
        self._affinity_hits += int(workload_totals.get("lru_hits", 0))
        self.metrics.record_units(stats)
        if failure is not None:
            unit, outcome = failure
            raise WorkUnitError(
                f"work unit {unit.benchmark!r} ({unit.kind}) failed in "
                f"worker {outcome['pid']}: {outcome['error_type']}: "
                f"{outcome['error_msg']}",
                unit=unit,
                worker_pid=outcome["pid"],
                worker_traceback=outcome["traceback"],
            )

        values: Dict[KindKey, Dict[Tuple[float, int], float]] = {}
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
        self.metrics.record(SweepRecord(
            kind=units[0].kind if units else "empty",
            units=sweep.units,
            points=sweep.points,
            cache_hits=hits,
            cache_misses=len(pending),
            evaluated_points=pending_points,
            elapsed_s=elapsed,
            workers=workers,
            parallel=parallel,
        ))
        self._c_sweeps.inc()
        self._c_units.inc(len(units))
        self._c_points.inc(sweep.points)
        self._c_cache_hits.inc(hits)
        self._c_cache_misses.inc(len(pending))
        self._t_sweep.add(elapsed)
        if self.obs.tracing:
            self.obs.tracer.complete(
                f"sweep.{sweep.units and units[0].kind or 'empty'}",
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

        Units are grouped into workload-affinity batches
        (:func:`_make_batches`) so every unit sharing a generated trace
        lands in one worker's LRU, submitted most-points-first as
        independent futures, and harvested as they complete - a
        completed unit is cached *immediately*, so a later crash or
        timeout never loses finished work.  Between completions the
        loop blocks in ``wait(FIRST_COMPLETED)``, bounded by the sweep
        deadline when ``timeout_s`` is set.

        On timeout the pool is abandoned without waiting (queued futures
        cancelled, worker processes terminated) so a hung unit cannot
        wedge the sweep's caller.

        A dying worker (``BrokenProcessPool``) is treated as transient:
        completed batches are kept, and the un-run remainder is retried
        on a fresh pool up to ``pool_retries`` times with capped
        exponential backoff.  If the deaths persist, the first un-run
        unit is surfaced as a failed outcome.
        """
        outcomes_by_unit: Dict["WorkUnit", Dict[str, Any]] = {}
        batches = _make_batches(pending, workers)
        sched["batches"] = len(batches)
        remaining = set(range(len(batches)))
        deadline = (time.monotonic() + self.timeout_s
                    if self.timeout_s is not None else None)
        attempt = 0
        while True:
            pool = ProcessPoolExecutor(max_workers=workers)
            crashed = False
            try:
                # Indices ascend in most-points-first batch order (LPT).
                futures = {
                    pool.submit(_evaluate_batch_tracked,
                                (tuple(batches[idx]), time.monotonic())): idx
                    for idx in sorted(remaining)
                }
                while futures and not crashed:
                    timeout = None
                    if deadline is not None:
                        # wait() overflows past TIMEOUT_MAX (timeout_s=inf).
                        timeout = min(max(0.0, deadline - time.monotonic()),
                                      threading.TIMEOUT_MAX)
                    done, _ = futures_wait(futures, timeout=timeout,
                                           return_when=FIRST_COMPLETED)
                    if not done:
                        stuck = tuple(u for i in sorted(remaining)
                                      for u in batches[i])
                        names = ", ".join(
                            u.benchmark for u in stuck[:5]
                        ) + ("..." if len(stuck) > 5 else "")
                        raise SweepTimeoutError(
                            f"sweep timed out after {self.timeout_s:g}s "
                            f"with {len(stuck)} of {len(pending)} units "
                            f"outstanding ({names})",
                            pending_units=stuck,
                        )
                    for fut in done:
                        idx = futures.pop(fut)
                        try:
                            batch_outcomes = fut.result()
                        except BrokenProcessPool:
                            crashed = True
                            continue
                        self._collect(batches[idx], batch_outcomes,
                                      outcomes_by_unit)
                        remaining.discard(idx)
                if crashed:
                    # A worker died.  Batches that completed around the
                    # crash hold good results; keep them.
                    for fut, idx in futures.items():
                        if fut.done() and fut.exception() is None:
                            self._collect(batches[idx], fut.result(),
                                          outcomes_by_unit)
                            remaining.discard(idx)
            except BaseException:
                self._abandon_pool(pool)
                raise
            if not crashed:
                pool.shutdown(wait=True)
                return outcomes_by_unit
            # Retry the un-run remainder on a fresh pool; give up after
            # ``pool_retries``.
            self._abandon_pool(pool)
            if not remaining:
                return outcomes_by_unit
            if attempt >= self.pool_retries:
                first = batches[min(remaining)][0]
                outcomes_by_unit[first] = {
                    "pid": 0,
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

    def _collect(self, units: Sequence["WorkUnit"],
                 outcomes: Sequence[Dict[str, Any]],
                 outcomes_by_unit: Dict["WorkUnit", Dict[str, Any]]
                 ) -> None:
        """Record a finished batch and cache each unit the moment it
        lands (success only - a failed unit must never poison the
        cache)."""
        for unit, outcome in zip(units, outcomes):
            outcomes_by_unit[unit] = outcome
            if outcome["ok"]:
                self.cache.put(unit.cache_key(), outcome["rows"],
                               key_fields=unit.key_fields())

    @staticmethod
    def _abandon_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down without waiting on its (possibly hung)
        workers."""
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

        start_s = (time.monotonic() - _ORIGIN
                   - outcome["eval_s"])
        self.obs.tracer.complete(
            f"unit.{unit.benchmark}", ts=start_s * 1e6,
            dur=outcome["eval_s"] * 1e6, cat="engine",
            tid=outcome["pid"],
            args={"kind": unit.kind, "points": unit.points,
                  "queue_wait_s": round(outcome["queue_wait_s"], 6),
                  "ok": outcome["ok"]},
        )

    # ------------------------------------------------------------------
    # convenience maps
    # ------------------------------------------------------------------

    def performance_map(self, benchmarks: Sequence[ProfileLike],
                        cache_grid: Sequence[float] = CACHE_GRID_KB,
                        slice_grid: Sequence[int] = SLICE_GRID,
                        model: Optional[AnalyticModel] = None
                        ) -> SweepResult:
        """``P(c, s)`` grids for several benchmarks in one fan-out."""
        return self.run(
            SweepSpec(
                benchmarks=tuple(benchmarks),
                cache_grid=tuple(cache_grid),
                slice_grid=tuple(slice_grid),
            ),
            model=model,
        )

    def utility_map(self, benchmarks: Sequence[ProfileLike],
                    utilities: Sequence[Any], markets: Sequence[Any],
                    budget: float,
                    cache_grid: Sequence[float] = CACHE_GRID_KB,
                    slice_grid: Sequence[int] = SLICE_GRID,
                    model: Optional[AnalyticModel] = None) -> SweepResult:
        """Utility grids for benchmark x utility x market in one fan-out."""
        return self.run(
            SweepSpec(
                benchmarks=tuple(benchmarks),
                cache_grid=tuple(cache_grid),
                slice_grid=tuple(slice_grid),
                utilities=tuple(utilities),
                markets=tuple(markets),
                budget=budget,
            ),
            model=model,
        )

    def simulation_map(self, benchmarks: Sequence[ProfileLike],
                       cache_grid: Sequence[float],
                       slice_grid: Sequence[int],
                       trace_length: int, trace_seed: int = 1,
                       sim_config: Any = None) -> SweepResult:
        """Cycle-level ``IPC(c, s)`` grids for several benchmarks.

        Runs the simulator (sampled when the engine was built with
        ``sampling=...``, exact otherwise) per grid point, cached and
        fanned out exactly like analytic sweeps.
        """
        return self.run(
            SweepSpec(
                benchmarks=tuple(benchmarks),
                cache_grid=tuple(cache_grid),
                slice_grid=tuple(slice_grid),
                simulate=True,
                trace_length=trace_length,
                trace_seed=trace_seed,
                sim_config=sim_config,
            )
        )

    def service_map(self, params: Dict[str, Any],
                    shards: int = 1) -> SweepResult:
        """Fan a sharded event stream across workers.

        Each shard is one ``kind="service"`` unit: an independent
        :class:`~repro.cloud.service.AllocationService` driven by a
        seeded stream (seed + shard index), returning its
        ``STREAM_METRICS`` rows keyed ``("stream/shard<i>",)``.
        Cached like any other unit - params and shard are part of the
        content address.
        """
        return self.run(SweepSpec(
            benchmarks=(),
            service=dict(params),
            shards=shards,
        ))

    def grid_model(self, cache_grid: Sequence[float] = CACHE_GRID_KB,
                   slice_grid: Sequence[int] = SLICE_GRID,
                   model: Optional[AnalyticModel] = None,
                   profiles: Optional[Iterable[ProfileLike]] = None
                   ) -> "GridModel":
        """An AnalyticModel drop-in backed by this engine's sweeps."""
        grid = GridModel(self, cache_grid=cache_grid,
                         slice_grid=slice_grid, base=model)
        if profiles is not None:
            grid.prime(list(profiles))
        return grid


class GridModel(AnalyticModel):
    """An :class:`AnalyticModel` whose ``performance()`` serves from an
    engine-filled (cached, fan-out-evaluated) table.

    Off-grid configurations and non-performance queries (``breakdown``)
    fall back to the plain analytic pipeline, so this is a transparent
    drop-in anywhere a model is accepted.  Priming batches benchmarks
    into one engine sweep; unprimed benchmarks are fetched on first use.
    """

    def __init__(self, engine: SweepEngine,
                 cache_grid: Sequence[float] = CACHE_GRID_KB,
                 slice_grid: Sequence[int] = SLICE_GRID,
                 base: Optional[AnalyticModel] = None):
        base = base or AnalyticModel()
        super().__init__(comm_tolerance=base.comm_tolerance,
                         mlp_per_slice=base.mlp_per_slice)
        self._engine = engine
        self._cache_grid = tuple(float(c) for c in cache_grid)
        self._slice_grid = tuple(int(s) for s in slice_grid)
        self._table: Dict[Tuple[BenchmarkProfile, float, int], float] = {}
        self._primed: set = set()

    def prime(self, profiles: Sequence[ProfileLike]) -> None:
        """Fill the table for ``profiles`` in one engine sweep."""
        from repro.perfmodel.model import _resolve

        fresh = []
        for profile in profiles:
            prof = _resolve(profile)
            if prof not in self._primed:
                fresh.append(prof)
        if not fresh:
            return
        sweep = self._engine.performance_map(
            fresh, self._cache_grid, self._slice_grid, model=self
        )
        for prof in fresh:
            for (c, s), value in sweep.grid(prof).items():
                self._table[(prof, c, s)] = value
            self._primed.add(prof)

    def performance(self, profile: ProfileLike, cache_kb: float,
                    slices: int) -> float:
        from repro.perfmodel.model import _resolve

        prof = _resolve(profile)
        key = (prof, float(cache_kb), int(slices))
        value = self._table.get(key)
        if value is not None:
            return value
        if prof not in self._primed:
            self.prime([prof])
            value = self._table.get(key)
            if value is not None:
                return value
        # Off-grid point: compute through the plain analytic pipeline.
        return super().performance(prof, cache_kb, slices)
