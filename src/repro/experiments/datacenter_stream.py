"""Streaming datacenter service: a churning market driven event by event.

``datacenter_scale`` places 10k tenants in one batch; a real IaaS
provider faces a *stream* - tenants arrive, resize, and depart
continuously while prices track demand.  This experiment drives the
:class:`~repro.cloud.service.AllocationService` with a seeded synthetic
event stream (Table 5 workload mix, bounded active population) and
reports the service-level metrics the batch experiments cannot see:

* sustained events/sec and per-event latency percentiles;
* admission outcomes - profit-floor rejections vs capacity rejections;
* fabric fragmentation over time and opportunistic compactions;
* warm-started price-convergence rounds per repricing step.

The stream is sharded deterministically: shard ``j`` is the same
stream seeded ``seed + j``.  Shards run in-process, or on a process
pool with ``jobs > 1``; the default single stream runs in-process.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cloud.fabric import Fabric
from repro.cloud.resilience import (
    DEFAULT_INJECT_KINDS,
    FaultInjector,
    FaultPlan,
    rng_state_from_json,
    rng_state_to_json,
    save_checkpoint,
)
from repro.cloud.service import (
    AllocationService,
    Event,
    TenantRequest,
    _percentile,
)
from repro.cloud.shards import CoupledShards
from repro.economics.utility import STANDARD_UTILITIES
from repro.experiments.base import ExperimentResult
from repro.experiments.datacenter_scale import (
    BUDGET_SPAN,
    MAX_VCORES,
    RACK_HEIGHT,
    RACK_WIDTH,
)
from repro.trace.profiles import PROFILES

NAME = "datacenter_stream"

#: Steady-state active population the stream churns around.
ACTIVE_TARGET = 160

#: Fraction of events that are budget resizes (when tenants are active).
RESIZE_FRACTION = 0.06

#: Below this utility-per-budget-unit the provider declines the tenant.
ADMISSION_FLOOR = 0.02

#: Default per-shard event interval between global price syncs in a
#: coupled group.
SYNC_EVERY = 500


@dataclass(frozen=True)
class DatacenterStreamResult(ExperimentResult):
    """Service-level stream statistics."""

    num_events: int
    seed: int
    backend: str
    events_per_s: float
    rejection_rate: float
    mean_rounds: float
    latency_p50_ms: float
    latency_p99_ms: float

    def to_dict(self, include_elapsed: bool = True):
        out = super().to_dict(include_elapsed=include_elapsed)
        out["stream"] = {
            "num_events": self.num_events,
            "seed": self.seed,
            "backend": self.backend,
            "events_per_s": self.events_per_s,
            "rejection_rate": self.rejection_rate,
            "mean_rounds": self.mean_rounds,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p99_ms": self.latency_p99_ms,
        }
        return out


def build_service(admission_floor: float = ADMISSION_FLOOR,
                  obs=None, **service_kwargs) -> AllocationService:
    """One rack-backed service with the experiment's standard knobs.

    Extra keyword arguments (``degrade_on_divergence``,
    ``dead_letter_limit``, the readmit knobs, ...) pass straight
    through to :class:`~repro.cloud.service.AllocationService`.
    """
    return AllocationService(
        fabric=Fabric(RACK_WIDTH, RACK_HEIGHT),
        admission_floor=admission_floor,
        max_vcores=MAX_VCORES,
        obs=obs,
        **service_kwargs,
    )


def synthesize_event(rng: random.Random, active: List[str],
                     serial: int, active_target: int,
                     resize_fraction: float) -> Tuple[Event, int]:
    """The next stream event against the currently active tenants.

    Arrivals dominate until the population reaches ``active_target``,
    after which departures balance them; resizes are sprinkled in at
    ``resize_fraction``.  Deterministic in (rng state, active list).
    """
    benchmarks = sorted(PROFILES)
    r = rng.random()
    if active and r < resize_fraction:
        lo, hi = BUDGET_SPAN
        return Event(kind="resize", tenant_id=rng.choice(active),
                     budget=rng.uniform(lo, hi)), serial
    if active and (len(active) >= active_target or r < 0.45):
        return Event(kind="depart",
                     tenant_id=rng.choice(active)), serial
    lo, hi = BUDGET_SPAN
    serial += 1
    tenant = TenantRequest(
        name=f"t{serial}",
        benchmark=benchmarks[rng.randrange(len(benchmarks))],
        utility=STANDARD_UTILITIES[
            rng.randrange(len(STANDARD_UTILITIES))],
        budget=rng.uniform(lo, hi),
    )
    return Event(kind="submit", tenant=tenant), serial


def drive_stream(service: AllocationService, num_events: int, seed: int,
                 active_target: int = ACTIVE_TARGET,
                 resize_fraction: float = RESIZE_FRACTION,
                 reprice_every: int = 1,
                 collect_latencies: bool = False,
                 serial0: int = 0,
                 active: Optional[List[str]] = None,
                 *,
                 strict: bool = True,
                 readmit: bool = False,
                 injector: Optional[FaultInjector] = None,
                 audit_every: int = 0,
                 checkpoint_every: int = 0,
                 on_checkpoint: Optional[
                     Callable[[int, Dict[str, Any]], None]] = None,
                 rng: Optional[random.Random] = None,
                 first_index: int = 0
                 ) -> Tuple[Dict[str, float], List[float], int]:
    """Drive ``num_events`` seeded events through a live service.

    Returns ``(stats, per_event_latencies_s, serial)``; pass the
    returned ``serial`` (and keep the same ``active`` list) to chain
    segments of one continuous stream.

    Resilience knobs (all default-off; the default path is bit-equal
    to the historical loop): ``strict=False`` dead-letters rejectable
    events instead of raising, ``readmit=True`` retries
    capacity-rejected tenants with capped backoff after departures,
    ``injector`` perturbs the run with a seeded
    :class:`~repro.cloud.resilience.FaultInjector`, ``audit_every=N``
    verifies service invariants every N events, and
    ``checkpoint_every=N`` hands a resumable checkpoint dict to
    ``on_checkpoint`` every N events.  ``rng``/``first_index`` are the
    resume entry points (see :func:`resume_stream`): the loop runs
    absolute indices ``first_index..num_events``, so repricing and
    checkpoint boundaries line up with the uninterrupted run.
    """
    if rng is None:
        rng = random.Random(seed)
    if active is None:
        active = []
    serial = serial0
    count = num_events - first_index
    latencies: List[float] = []
    before = service.summary()
    t0 = time.perf_counter()
    for i in range(first_index, num_events):
        if injector is not None:
            injector.perturb(service, i)
        event, serial = synthesize_event(rng, active, serial,
                                         active_target, resize_fraction)
        t_event = time.perf_counter() if collect_latencies else 0.0
        outcome = service.process(event, i, strict=strict)
        if readmit and event.kind == "submit" and outcome is not None \
                and not outcome.admitted \
                and outcome.reason == "rejected_capacity":
            service.note_capacity_rejection(event.tenant, i)
        if reprice_every and (i + 1) % reprice_every == 0:
            service.step()
        if collect_latencies:
            latencies.append(time.perf_counter() - t_event)
        if event.kind == "submit" and outcome is not None \
                and outcome.admitted:
            active.append(event.tenant.name)
        elif event.kind == "depart" and outcome is not None:
            active.remove(event.tenant_id)
            if readmit:
                active.extend(service.readmit_pending(i))
        if audit_every and (i + 1) % audit_every == 0:
            service.verify_invariants()
        if (checkpoint_every and on_checkpoint is not None
                and (i + 1) % checkpoint_every == 0):
            on_checkpoint(i + 1, make_checkpoint(
                service, rng, active, serial, i + 1, seed,
                injector=injector))
    elapsed = time.perf_counter() - t0
    after = service.summary()
    stats = {
        "events": float(count),
        "admitted": float(after.admitted - before.admitted),
        "rejected_price": float(after.rejected_price
                                - before.rejected_price),
        "rejected_capacity": float(after.rejected_capacity
                                   - before.rejected_capacity),
        "departures": float(after.departures - before.departures),
        "resizes": float(after.resizes - before.resizes),
        "reprice_rounds": float(after.reprice_rounds
                                - before.reprice_rounds),
        "compactions": float(after.compactions - before.compactions),
        "active_tenants": float(after.active_tenants),
        "events_per_s": (count / elapsed if elapsed > 0
                         else float("inf")),
        "final_fragmentation": after.fragmentation,
        "slice_price": after.slice_price,
        "bank_price": after.bank_price,
        "dead_letters": float(after.dead_letters - before.dead_letters),
        "degraded_steps": float(after.degraded_steps
                                - before.degraded_steps),
        "readmitted": float(after.readmitted - before.readmitted),
        "wall_s": elapsed,
        "latency_p50_ms": _percentile(sorted(latencies), 0.50) * 1e3,
        "latency_p99_ms": _percentile(sorted(latencies), 0.99) * 1e3,
        "price_syncs": 0.0,
    }
    return stats, latencies, serial


def make_checkpoint(service: AllocationService, rng: random.Random,
                    active: List[str], serial: int, events_done: int,
                    seed: int,
                    injector: Optional[FaultInjector] = None
                    ) -> Dict[str, Any]:
    """A resumable stream checkpoint: full service snapshot plus the
    driver's own state (event RNG, active roster view, name serial)
    and, when a chaos run, the injector's state.  JSON-stable, so it
    can be written with
    :func:`repro.cloud.resilience.save_checkpoint` verbatim."""
    checkpoint: Dict[str, Any] = {
        "service": service.snapshot(),
        "stream": {
            "rng_state": rng_state_to_json(rng.getstate()),
            "active": list(active),
            "serial": serial,
            "events_done": events_done,
            "seed": seed,
        },
    }
    if injector is not None:
        checkpoint["injector"] = injector.snapshot()
    return checkpoint


def resume_stream(service: AllocationService,
                  checkpoint: Dict[str, Any], num_events: int,
                  **drive_kwargs
                  ) -> Tuple[Dict[str, float], List[float], int]:
    """Resume a killed run from a checkpoint, bit-equal to never dying.

    ``service`` must be a freshly built service of the same shape as
    the snapshotting one (e.g. :func:`build_service` with the same
    knobs); its state is replaced by the checkpoint's, the event RNG
    is rewound to the captured state, and the stream continues at the
    next absolute event index.  Stats cover the resumed segment only.
    """
    service.restore(checkpoint["service"])
    stream = checkpoint["stream"]
    injector = drive_kwargs.get("injector")
    if injector is not None and "injector" in checkpoint:
        injector.restore(checkpoint["injector"])
    rng = random.Random()
    rng.setstate(rng_state_from_json(stream["rng_state"]))
    return drive_stream(
        service, num_events, seed=stream["seed"],
        serial0=stream["serial"], active=list(stream["active"]),
        rng=rng, first_index=stream["events_done"], **drive_kwargs)


def build_coupled_group(couple: int,
                        sync_every: int = SYNC_EVERY,
                        admission_floor: float = ADMISSION_FLOOR,
                        obs=None, **service_kwargs) -> CoupledShards:
    """``couple`` rack-backed shard services coupled through one
    global price vector.

    All shards share one :class:`~repro.economics.tensor.MarketKernel`,
    so memoized ``P^k`` rows (the arena's row source) are built once
    per group.
    """
    if couple < 1:
        raise ValueError("couple must be >= 1")
    services: List[AllocationService] = []
    kernel = None
    for _ in range(couple):
        service = build_service(admission_floor=admission_floor,
                                obs=obs, kernel=kernel,
                                **service_kwargs)
        kernel = kernel or service.kernel
        services.append(service)
    return CoupledShards(services, sync_every=sync_every, obs=obs)


def drive_coupled_stream(group: CoupledShards, num_events: int,
                         seed: int,
                         active_target: int = ACTIVE_TARGET,
                         resize_fraction: float = RESIZE_FRACTION,
                         reprice_every: int = 1,
                         collect_latencies: bool = False,
                         *,
                         strict: bool = True,
                         readmit: bool = False,
                         audit_every: int = 0
                         ) -> Tuple[Dict[str, float], List[float]]:
    """Drive ``num_events`` total events through a coupled shard group.

    The total splits evenly across shards (earlier shards absorb any
    remainder); shard ``j``'s event stream is seeded
    ``seed * 1000 + j`` so per-shard populations decorrelate.  Shards
    advance in fixed round-robin order, ``group.sync_every`` events
    per shard per round, with a global price averaging/broadcast after
    every round - fully deterministic, so a coupled run is exactly
    reproducible (but not checkpointable: only :func:`drive_stream`
    writes checkpoints).

    Returns ``(stats, pooled_latencies)`` with the same keys as
    :func:`drive_stream` plus ``price_syncs``.
    """
    n = len(group.services)
    quota = [num_events // n + (1 if j < num_events % n else 0)
             for j in range(n)]
    rngs = [random.Random(seed * 1000 + j) for j in range(n)]
    actives: List[List[str]] = [[] for _ in range(n)]
    serials = [0] * n
    done = [0] * n
    totals: Optional[Dict[str, float]] = None
    latencies: List[float] = []
    wall = 0.0
    syncs_before = group.n_syncs
    while any(done[j] < quota[j] for j in range(n)):
        for j, service in enumerate(group.services):
            end = min(quota[j], done[j] + group.sync_every)
            if end <= done[j]:
                continue
            stats, lats, serials[j] = drive_stream(
                service, end, seed * 1000 + j,
                active_target=active_target,
                resize_fraction=resize_fraction,
                reprice_every=reprice_every,
                collect_latencies=collect_latencies,
                serial0=serials[j], active=actives[j],
                strict=strict, readmit=readmit,
                audit_every=audit_every,
                rng=rngs[j], first_index=done[j],
            )
            done[j] = end
            wall += stats["wall_s"]
            latencies.extend(lats)
            if totals is None:
                totals = {key: 0.0 for key in stats}
            for key in ("events", "admitted", "rejected_price",
                        "rejected_capacity", "departures", "resizes",
                        "reprice_rounds", "compactions",
                        "dead_letters", "degraded_steps",
                        "readmitted"):
                totals[key] += stats[key]
        group.sync()
    assert totals is not None, "coupled stream drove zero events"
    slice_price, bank_price = group.prices()
    totals["active_tenants"] = float(sum(
        svc.summary().active_tenants for svc in group.services))
    totals["final_fragmentation"] = (
        sum(svc.fragmentation() for svc in group.services) / n)
    totals["slice_price"] = slice_price
    totals["bank_price"] = bank_price
    totals["wall_s"] = wall
    totals["events_per_s"] = (totals["events"] / wall if wall > 0
                              else float("inf"))
    ordered = sorted(latencies)
    totals["latency_p50_ms"] = _percentile(ordered, 0.50) * 1e3
    totals["latency_p99_ms"] = _percentile(ordered, 0.99) * 1e3
    totals["price_syncs"] = float(group.n_syncs - syncs_before)
    return totals, latencies


def check_run_args(num_events: int, shards: int = 1, couple: int = 1,
                   fault_rate: float = 0.0, checkpoint_every: int = 0,
                   checkpoint_path: Optional[str] = None,
                   sync_every: Optional[int] = None,
                   chaos_seed: Optional[int] = None,
                   jobs: int = 1, reprice_every: int = 1,
                   audit_every: int = 0, segments: int = 1) -> None:
    """Raise the one-line ``ValueError`` :func:`run` raises for these
    arguments, if any: a run drives exactly ``num_events`` events and
    acts on every option it is given.  ``None`` means "not given" for
    ``sync_every`` and ``chaos_seed``; ``jobs`` is the worker count
    for sharded runs."""
    if num_events < 1:
        raise ValueError(f"num_events must be >= 1, got {num_events}")
    for name, count in (("shards", shards), ("couple", couple),
                        ("jobs", jobs), ("sync_every", sync_every),
                        ("segments", segments)):
        if count is not None and count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    for name, interval in (("reprice_every", reprice_every),
                           ("audit_every", audit_every),
                           ("checkpoint_every", checkpoint_every)):
        if interval < 0:
            raise ValueError(f"{name} must be >= 0 (0 disables it), "
                             f"got {interval}")
    if shards > 1 and num_events % shards:
        raise ValueError(f"num_events={num_events} must be a multiple "
                         f"of shards={shards}: each shard drives "
                         "num_events / shards events")
    if fault_rate > 0.0 and couple > 1:
        raise ValueError("fault injection needs couple=1: coupled shard "
                         "groups run without a fault injector")
    if checkpoint_every and not checkpoint_path:
        raise ValueError("checkpoint_every needs a checkpoint_path")
    if checkpoint_path and not checkpoint_every:
        raise ValueError("checkpoint_path needs checkpoint_every")
    if sync_every is not None and couple <= 1:
        raise ValueError("sync_every needs couple > 1: only coupled "
                         "shards sync prices")
    if chaos_seed is not None and fault_rate <= 0.0:
        raise ValueError("chaos_seed needs fault_rate > 0: it seeds the "
                         "fault plan")
    if jobs != 1 and shards <= 1:
        raise ValueError("jobs needs shards > 1: only sharded runs fan "
                         "out to workers")
    if checkpoint_every and (couple > 1 or shards > 1):
        raise ValueError("checkpoint_every needs shards=1 and couple=1: "
                         "only the single stream writes checkpoints")


def _drive(num_events: int, seed: int, *, couple: int, sync_every: int,
           admission_floor: float, active_target: int,
           reprice_every: int, fault_rate: float, chaos_seed: int,
           strict: bool, readmit: bool, audit_every: int,
           segments: int = 1, checkpoint_every: int = 0,
           checkpoint_path: Optional[str] = None, obs=None
           ) -> Tuple[List[Dict[str, Any]], List[float]]:
    """``(rows, per_event_latencies_s)`` of one stream: a coupled group
    when ``couple > 1`` (one ``coupled`` row), otherwise one service
    driven in ``segments`` rows ``q1``, ``q2``, ...  Module-level so a
    process pool can run one per shard."""
    if couple > 1:
        group = build_coupled_group(
            couple, sync_every=sync_every,
            admission_floor=admission_floor, obs=obs,
            degrade_on_divergence=not strict)
        stats, latencies = drive_coupled_stream(
            group, num_events, seed,
            active_target=active_target,
            reprice_every=reprice_every,
            collect_latencies=True,
            strict=strict, readmit=readmit,
            audit_every=audit_every)
        stats["segment"] = "coupled"
        return [stats], latencies
    service = build_service(admission_floor=admission_floor, obs=obs,
                            degrade_on_divergence=not strict)
    injector = None
    if fault_rate > 0.0:
        injector = FaultInjector(
            FaultPlan.seeded(num_events, fault_rate, chaos_seed,
                             kinds=DEFAULT_INJECT_KINDS),
            seed=chaos_seed,
        )
    on_checkpoint = None
    if checkpoint_every:
        def on_checkpoint(count, payload, _path=checkpoint_path):
            save_checkpoint(_path, payload)

    rows: List[Dict[str, Any]] = []
    latencies: List[float] = []
    active: List[str] = []
    serial = 0
    # Never more segments than events: every segment drives >= 1.
    segments = min(segments, num_events)
    per_segment = num_events // segments
    done = 0
    for segment in range(segments):
        count = (num_events - per_segment * (segments - 1)
                 if segment == segments - 1 else per_segment)
        stats, lats, serial = drive_stream(
            service, done + count, seed + segment,
            active_target=active_target,
            reprice_every=reprice_every,
            collect_latencies=True,
            serial0=serial, active=active,
            strict=strict, readmit=readmit, injector=injector,
            audit_every=audit_every,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
            first_index=done,
        )
        done += count
        stats["segment"] = f"q{segment + 1}"
        rows.append(stats)
        latencies.extend(lats)
    return rows, latencies


def run(num_events: int = 20_000, seed: int = 11,
        active_target: int = ACTIVE_TARGET,
        admission_floor: float = ADMISSION_FLOOR,
        reprice_every: int = 1, segments: int = 4,
        shards: int = 1, jobs: int = 1,
        couple: int = 1, sync_every: Optional[int] = None,
        fault_rate: float = 0.0, chaos_seed: Optional[int] = None,
        strict: Optional[bool] = None, readmit: bool = False,
        audit_every: int = 0,
        checkpoint_every: int = 0,
        checkpoint_path: Optional[str] = None,
        engine=None, obs=None) -> DatacenterStreamResult:
    """Drive one continuous stream, reported in ``segments`` rows
    (at least one; more segments than events are clamped to
    ``num_events``, so every row drives at least one event).

    ``shards > 1`` drives that many independent streams of
    ``num_events / shards`` events instead, one row per shard: shard
    ``j`` is the single stream (one segment) seeded ``seed + j``, with
    every other argument the same.  They run in-process, or across
    ``jobs`` worker processes when ``jobs > 1``; shards take no
    ``obs``.  ``couple > 1`` makes the stream (or each shard) a
    *coupled group* of that many shard services trading against one
    shared global price vector, averaged/broadcast every
    ``sync_every`` events per shard (default :data:`SYNC_EVERY`) - the
    1M-event configuration is ``shards * couple`` services covering
    ``num_events`` total events in one invocation.

    ``fault_rate > 0`` perturbs the stream with a
    :class:`~repro.cloud.resilience.FaultPlan` seeded by
    ``chaos_seed`` (default 0); the service then runs lenient (dead
    letters, graceful degradation) unless ``strict=True`` is forced.
    ``checkpoint_every=N`` writes a resumable checkpoint JSON to
    ``checkpoint_path`` every N events (single-stream mode only).
    ``engine`` only lends its ``obs`` when ``obs`` is not given.
    Arguments that would drive a different number of events or drop an
    option raise ``ValueError`` (see :func:`check_run_args`).
    """
    check_run_args(num_events, shards=shards, couple=couple,
                   fault_rate=fault_rate,
                   checkpoint_every=checkpoint_every,
                   checkpoint_path=checkpoint_path,
                   sync_every=sync_every, chaos_seed=chaos_seed,
                   jobs=jobs, reprice_every=reprice_every,
                   audit_every=audit_every, segments=segments)
    if sync_every is None:
        sync_every = SYNC_EVERY
    if chaos_seed is None:
        chaos_seed = 0
    start = time.perf_counter()
    if obs is None and engine is not None:
        obs = getattr(engine, "obs", None)
    if strict is None:
        strict = fault_rate == 0.0
    knobs = dict(couple=couple, sync_every=sync_every,
                 admission_floor=admission_floor,
                 active_target=active_target,
                 reprice_every=reprice_every, fault_rate=fault_rate,
                 chaos_seed=chaos_seed, strict=strict, readmit=readmit,
                 audit_every=audit_every)

    if shards > 1:
        drive_shard = functools.partial(_drive, num_events // shards,
                                        **knobs)
        seeds = [seed + shard for shard in range(shards)]
        if jobs > 1:
            # Imported here: the pool machinery costs ~25 ms to import,
            # and an in-process run never needs it.  Workers are
            # spawned, not forked: numpy may already run threads here.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(
                    max_workers=min(jobs, shards),
                    mp_context=multiprocessing.get_context("spawn"),
            ) as pool:
                outcomes = list(pool.map(drive_shard, seeds))
        else:
            outcomes = [drive_shard(shard_seed) for shard_seed in seeds]
        rows, latencies = [], []
        for shard, ((row,), lats) in enumerate(outcomes):
            row["segment"] = f"shard{shard}"
            rows.append(row)
            latencies.extend(lats)
    else:
        rows, latencies = _drive(
            num_events, seed, segments=segments,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path, obs=obs, **knobs)

    run_params = {"num_events": num_events, "seed": seed,
                  "backend": "numpy",
                  "active_target": active_target,
                  "admission_floor": admission_floor,
                  "reprice_every": reprice_every,
                  "shards": shards,
                  "couple": couple, "sync_every": sync_every,
                  "rack": f"{RACK_WIDTH}x{RACK_HEIGHT}"}
    if fault_rate > 0.0:
        run_params.update({"fault_rate": fault_rate,
                           "chaos_seed": chaos_seed,
                           "strict": strict, "readmit": readmit})

    total_events = sum(r["events"] for r in rows)
    total_elapsed = sum(r["events"] / r["events_per_s"] for r in rows
                        if r["events_per_s"] > 0)
    submitted = sum(r["admitted"] + r["rejected_price"]
                    + r["rejected_capacity"] for r in rows)
    rejected = sum(r["rejected_price"] + r["rejected_capacity"]
                   for r in rows)
    steps = sum(r["events"] for r in rows) / max(1, reprice_every)
    latencies.sort()
    return DatacenterStreamResult(
        name=NAME,
        params=run_params,
        rows=tuple(rows),
        elapsed=time.perf_counter() - start,
        num_events=int(total_events),
        seed=seed,
        backend="numpy",
        events_per_s=(total_events / total_elapsed
                      if total_elapsed > 0 else float("inf")),
        rejection_rate=rejected / submitted if submitted else 0.0,
        mean_rounds=(sum(r["reprice_rounds"] for r in rows)
                     / steps if steps else 0.0),
        latency_p50_ms=_percentile(latencies, 0.50) * 1e3,
        latency_p99_ms=_percentile(latencies, 0.99) * 1e3,
    )


def render(result: DatacenterStreamResult) -> None:
    print(f"Streaming datacenter service: {result.num_events} events, "
          f"backend={result.backend}")
    print("  segment   events  admit  rej$  rejCap  depart  rounds"
          "  frag   ev/s")
    for row in result.rows:
        print(f"  {row['segment']:<8} {row['events']:>7.0f} "
              f"{row['admitted']:>6.0f} {row['rejected_price']:>5.0f} "
              f"{row['rejected_capacity']:>7.0f} "
              f"{row['departures']:>7.0f} "
              f"{row['reprice_rounds']:>7.0f} "
              f"{row['final_fragmentation']:>5.2f} "
              f"{row['events_per_s']:>7.0f}")
    print(f"  throughput: {result.events_per_s:.0f} events/s, "
          f"rejection rate {result.rejection_rate:.1%}, "
          f"mean {result.mean_rounds:.2f} rounds/step")
    dead = sum(row.get("dead_letters", 0.0) for row in result.rows)
    degraded = sum(row.get("degraded_steps", 0.0) for row in result.rows)
    readmitted = sum(row.get("readmitted", 0.0) for row in result.rows)
    if dead or degraded or readmitted:
        print(f"  resilience: {dead:.0f} dead-lettered, "
              f"{degraded:.0f} degraded steps, "
              f"{readmitted:.0f} re-admitted")
    syncs = sum(row.get("price_syncs", 0.0) for row in result.rows)
    if syncs:
        print(f"  coupled: {syncs:.0f} global price syncs")
    if result.latency_p99_ms:
        print(f"  latency: p50 {result.latency_p50_ms:.3f} ms, "
              f"p99 {result.latency_p99_ms:.3f} ms")
    print(f"  total: {result.elapsed:.2f}s")


def main() -> None:
    render(run())


if __name__ == "__main__":
    main()
