"""The streaming allocation service: a long-lived, event-driven market.

The paper evaluates its economic mechanism as a one-shot clearing
(Section 5, Figures 14-16, Table 6), but an IaaS provider runs a
*churning* market: tenants arrive, resize, and depart continuously.
:class:`AllocationService` turns the batch machinery into that service.
It owns a :class:`~repro.economics.tensor.MarketKernel`, a
:class:`~repro.cloud.fabric.Fabric`, and the current price vector, and
exposes an event-driven API:

* :meth:`submit` - profit-aware admission at the current prices:
  the tenant's utility-per-budget-unit must clear ``admission_floor``,
  and their VCores must physically place on the fabric;
* :meth:`resize` - change a tenant's budget (configurations are
  budget-independent, so only the replication factor moves);
* :meth:`depart` - release the tenant's tiles, with opportunistic
  compaction when the freed capacity leaves the fabric fragmented;
* :meth:`step` - warm-started tatonnement: prices re-converge from
  the previous fixed point instead of from scratch, so a quiescent
  market reprices in a single round with zero price movement;
* :meth:`run` - drive a whole event stream.

Batch clearing is now a thin wrapper: :meth:`clear_batch` replays the
registered tenants through the same tatonnement loop with cold-start
semantics, and :meth:`~repro.economics.auction.SpotMarket.clear`
delegates here.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Deque, Dict, Iterable, List, Optional, Tuple,
)

import numpy as np

from repro.cloud.arena import TensorArena
from repro.cloud.errors import (
    DuplicateTenantError,
    EventValidationError,
    ServiceError,
    UnknownTenantError,
)
from repro.cloud.fabric import AllocationError, Fabric
from repro.economics.auction import Allocation, ClearingResult, _clamp
from repro.economics.backend import resolve_backend
from repro.economics.market import BANK_KB, Market, budget_error
from repro.economics.tensor import MarketKernel
from repro.economics.utility import UtilityFunction
from repro.perfmodel.model import AnalyticModel


@dataclass(frozen=True)
class TenantRequest:
    """One tenant's standing bid: who they are and what they will pay."""

    name: str
    benchmark: str
    utility: UtilityFunction
    budget: float

    def __post_init__(self) -> None:
        _check_budget(self.budget, self.name)


def _check_budget(budget: float, tenant: str) -> None:
    """A budget is a positive, finite number of currency units."""
    message = budget_error(budget)
    if message is not None:
        raise EventValidationError(message, tenant=tenant)


@dataclass(frozen=True)
class AdmissionResult:
    """Outcome of one submit/resize event."""

    tenant: str
    admitted: bool
    #: "admitted" | "rejected_price" | "rejected_capacity"
    reason: str
    cache_kb: float = 0.0
    slices: int = 0
    vcores: int = 0
    #: Utility at the tenant's budget under the admission-time prices.
    utility: float = 0.0
    #: ``utility / budget`` - the profit-aware admission metric.
    marginal_utility: float = 0.0


@dataclass(frozen=True)
class StepResult:
    """Outcome of one warm-started repricing round."""

    rounds: int
    converged: bool
    rationed: bool
    slice_price: float
    bank_price: float
    #: True when tatonnement failed to converge and the service fell
    #: back to the last-known-good price vector (graceful degradation;
    #: requires ``degrade_on_divergence``).
    degraded: bool = False
    #: Wall-clock seconds this repricing step took.  Excluded from
    #: equality: timing is observational, never semantic.
    elapsed_s: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class Event:
    """One datacenter event: ``submit``, ``depart``, or ``resize``."""

    kind: str
    tenant: Optional[TenantRequest] = None
    tenant_id: Optional[str] = None
    budget: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("submit", "depart", "resize"):
            raise EventValidationError(
                f"unknown event kind {self.kind!r}")
        if self.kind == "submit" and self.tenant is None:
            raise EventValidationError("submit events need a tenant")
        if self.kind != "submit" and not self.tenant_id:
            raise EventValidationError(
                f"{self.kind} events need a tenant_id")

    @property
    def subject(self) -> str:
        """The tenant this event names (dead-letter records key)."""
        if self.kind == "submit":
            return self.tenant.name if self.tenant is not None else ""
        return self.tenant_id or ""


@dataclass(frozen=True)
class StreamSummary:
    """Aggregate outcome of :meth:`AllocationService.run`."""

    events: int
    admitted: int
    rejected_price: int
    rejected_capacity: int
    departures: int
    resizes: int
    reprice_rounds: int
    compactions: int
    active_tenants: int
    slice_price: float
    bank_price: float
    fragmentation: float
    #: Self-healing accounting (zero on strict, fault-free streams).
    dead_letters: int = 0
    degraded_steps: int = 0
    readmitted: int = 0
    retry_pending: int = 0
    #: Wall-clock seconds the driving loop spent (0.0 outside
    #: :meth:`AllocationService.run`).  Timing fields are excluded
    #: from equality: faulty==clean and crash/resume equivalence
    #: compare semantic outcomes, not wall clocks.
    wall_s: float = field(default=0.0, compare=False)
    #: Per-event latency percentiles over the driven stream, in
    #: milliseconds (0.0 outside :meth:`AllocationService.run`).
    latency_p50_ms: float = field(default=0.0, compare=False)
    latency_p99_ms: float = field(default=0.0, compare=False)


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile over pre-sorted values (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1,
              max(0, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[idx]


class _TenantState:
    """Internal per-tenant record (request + placement shape); the
    tenant's round row lives in the arena at its roster index."""

    __slots__ = ("request", "cache_kb", "slices", "vcores")

    def __init__(self, request: TenantRequest, cache_kb: float = 0.0,
                 slices: int = 0, vcores: int = 0):
        self.request = request
        self.cache_kb = cache_kb
        self.slices = slices
        self.vcores = vcores


class AllocationService:
    """A long-lived market over one fabric: the provider's control loop.

    The service holds the state the batch entry points recompute from
    scratch - an incremental tensor arena of per-tenant utility rows,
    memoized performance rows, the current price vector, and the
    fabric occupancy - and updates it incrementally per event.  Economics-only operation
    (``fabric=None`` with explicit supplies) backs the batch auction
    wrapper; fabric-backed operation adds physical placement and
    capacity-based rejection.

    ``model`` reaches the market kernel, which reads only its
    ``comm_tolerance`` and ``mlp_per_slice`` and never calls an
    overridden ``performance`` (see :mod:`repro.economics.tensor`,
    "Model contract").  ``backend`` accepts only ``None`` or
    ``"numpy"``.
    """

    def __init__(self, slice_supply: Optional[float] = None,
                 bank_supply: Optional[float] = None, *,
                 fabric: Optional[Fabric] = None,
                 fixed_cost: float = 8.0,
                 model: Optional[AnalyticModel] = None,
                 adjustment_rate: float = 0.3,
                 tolerance: float = 0.05,
                 max_rounds: int = 60,
                 backend: Optional[str] = None,
                 admission_floor: float = 0.0,
                 max_vcores: int = 8,
                 compaction_threshold: float = 0.5,
                 initial_slice_price: float = 2.0,
                 initial_bank_price: float = 1.0,
                 kernel: Optional[MarketKernel] = None,
                 dead_letter_limit: int = 1024,
                 degrade_on_divergence: bool = False,
                 readmit_attempts: int = 3,
                 readmit_backoff: int = 8,
                 readmit_backoff_cap: int = 128,
                 readmit_queue_limit: int = 256,
                 obs=None):
        if fabric is not None:
            if slice_supply is None:
                slice_supply = float(fabric.num_slices)
            if bank_supply is None:
                bank_supply = float(fabric.num_banks)
        if slice_supply is None or bank_supply is None:
            raise ValueError("need a fabric or explicit supplies")
        if slice_supply <= 0 or bank_supply <= 0:
            raise ValueError("supplies must be positive")
        if not 0 < adjustment_rate < 1:
            raise ValueError("adjustment rate must be in (0, 1)")
        if admission_floor < 0:
            raise ValueError("admission floor cannot be negative")
        if max_vcores < 1:
            raise ValueError("max_vcores must be >= 1")
        resolve_backend(backend)
        self.fabric = fabric
        self.slice_supply = slice_supply
        self.bank_supply = bank_supply
        self.fixed_cost = fixed_cost
        self.model = model or AnalyticModel()
        self.adjustment_rate = adjustment_rate
        self.tolerance = tolerance
        self.max_rounds = max_rounds
        self.admission_floor = admission_floor
        self.max_vcores = max_vcores
        self.compaction_threshold = compaction_threshold
        self.slice_price = initial_slice_price
        self.bank_price = initial_bank_price
        self.kernel = kernel or MarketKernel(model=self.model)
        self.cache_grid = self.kernel.cache_grid
        self.slice_grid = self.kernel.slice_grid

        #: Tenants in arrival order - the reduction order of every
        #: vectorized round, so batch replay matches the old auction
        #: bit for bit.
        self._roster: List[_TenantState] = []
        self._by_name: Dict[str, _TenantState] = {}
        #: Bumped whenever prices move; invalidates the admission cost
        #: row so memoization cannot grow with the event count.
        self._price_epoch = 0
        self._flat_cost_epoch = -1
        self._flat_cost = None
        #: Per-VCore Slice and bank counts of every configuration, flat
        #: in the kernel's cache-major order: one ``(2, C*S)``
        #: C-contiguous array, so a round gathers both resources of
        #: every tenant's choice at once (rows: Slices, banks).
        slices = np.asarray(self.slice_grid, dtype=float)
        banks = np.asarray(self.cache_grid, dtype=float) / BANK_KB
        self._resources = np.stack((np.tile(slices, len(banks)),
                                    np.repeat(banks, len(slices))))
        self._flat_slices, self._flat_banks = self._resources
        self._spot_market: Optional[Market] = None

        # --- self-healing state -----------------------------------
        #: Bounded queue of rejected-not-crashed event records
        #: (lenient mode); each record is a JSON-stable dict.
        self.dead_letters: Deque[Dict[str, Any]] = deque(
            maxlen=max(1, dead_letter_limit))
        self.degrade_on_divergence = degrade_on_divergence
        self.readmit_attempts = readmit_attempts
        self.readmit_backoff = max(1, readmit_backoff)
        self.readmit_backoff_cap = max(1, readmit_backoff_cap)
        self.readmit_queue_limit = readmit_queue_limit
        #: Fault hook: each pending unit forces the next ``step()`` to
        #: behave as a non-converged tatonnement (see
        #: ``repro.cloud.resilience.FaultInjector``).
        self.force_nonconverge = 0
        self._retry_queue: List[Dict[str, Any]] = []
        self._n_dead_letters: Dict[str, int] = {}
        self._n_degraded_steps = 0
        self._n_readmitted = 0
        self._n_retry_exhausted = 0

        from repro.obs import OBS_OFF

        scope = (obs or OBS_OFF).scope("cloud.service")
        self._scope = scope
        self._dl_counters: Dict[str, Any] = {}
        self._c_degraded = scope.counter("degraded_steps")
        self._c_readmitted = scope.counter("readmitted")
        self._c_retry_exhausted = scope.counter("retry_exhausted")
        self._c_admitted = scope.counter("admitted")
        self._c_rejected_price = scope.counter("rejected_price")
        self._c_rejected_capacity = scope.counter("rejected_capacity")
        self._c_departures = scope.counter("departures")
        self._c_resizes = scope.counter("resizes")
        self._c_compactions = scope.counter("compactions")
        self._c_reprice_rounds = scope.counter("reprice_rounds")
        self._t_submit = scope.timer("submit_s")
        self._t_depart = scope.timer("depart_s")
        self._t_resize = scope.timer("resize_s")
        self._t_step = scope.timer("step_s")
        scope.gauge("active_tenants", lambda: len(self._roster))
        #: Incremental tensor arena: one contiguous table of round
        #: tensors, row ``i`` = ``_roster[i]``, so no event ever
        #: triggers a stack rebuild.
        self._arena = TensorArena(
            len(self.cache_grid) * len(self.slice_grid), scope=scope)
        # Mirrored plain tallies for stream summaries (obs may be off).
        self._n_admitted = 0
        self._n_rejected_price = 0
        self._n_rejected_capacity = 0
        self._n_departures = 0
        self._n_resizes = 0
        self._n_compactions = 0
        self._n_reprice_rounds = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def active_tenants(self) -> List[str]:
        """Admitted tenant ids, in arrival order."""
        return [t.request.name for t in self._roster]

    def tenant(self, tenant_id: str) -> TenantRequest:
        state = self._by_name.get(tenant_id)
        if state is None:
            raise UnknownTenantError(f"unknown tenant {tenant_id!r}",
                                     tenant=tenant_id)
        return state.request

    def fragmentation(self) -> float:
        """Current free-Slice fragmentation (0.0 without a fabric)."""
        if self.fabric is None:
            return 0.0
        return self.fabric.slice_fragmentation()

    def prices(self) -> Tuple[float, float]:
        return self.slice_price, self.bank_price

    def spot_market(self) -> Market:
        """The current prices as a :class:`Market` (epoch-cached)."""
        if (self._spot_market is None
                or self._spot_market.slice_price != self.slice_price
                or self._spot_market.bank_price != self.bank_price):
            self._spot_market = Market(
                name="spot", slice_price=self.slice_price,
                bank_price=self.bank_price, fixed_cost=self.fixed_cost,
            )
        return self._spot_market

    # ------------------------------------------------------------------
    # event API
    # ------------------------------------------------------------------

    def submit(self, tenant: TenantRequest) -> AdmissionResult:
        """Admit (or reject) one arriving tenant at the current prices.

        Admission is profit-aware: the tenant's utility per unit of
        budget at the current prices must be at least
        ``admission_floor`` (a provider floor on willingness-to-pay
        per delivered utility), and - with a fabric - the VCores must
        physically place.  Admitted tenants join the market; prices
        move on the next :meth:`step`.
        """
        with self._t_submit:
            if tenant.name in self._by_name:
                raise DuplicateTenantError(
                    f"tenant {tenant.name!r} already active",
                    tenant=tenant.name)
            cache_kb, slices, value = self._best_at_prices(tenant)
            marginal = value / tenant.budget
            if marginal < self.admission_floor:
                self._c_rejected_price.inc()
                self._n_rejected_price += 1
                return AdmissionResult(
                    tenant=tenant.name, admitted=False,
                    reason="rejected_price", cache_kb=cache_kb,
                    slices=slices, utility=value,
                    marginal_utility=marginal,
                )
            affordable = self.spot_market().vcores_affordable(
                tenant.budget, cache_kb, slices
            )
            vcores = max(1, min(self.max_vcores, int(affordable)))
            if self.fabric is not None and not self._place(
                    tenant.name, cache_kb, slices, vcores):
                self._c_rejected_capacity.inc()
                self._n_rejected_capacity += 1
                return AdmissionResult(
                    tenant=tenant.name, admitted=False,
                    reason="rejected_capacity", cache_kb=cache_kb,
                    slices=slices, vcores=vcores, utility=value,
                    marginal_utility=marginal,
                )
            self._register(tenant, cache_kb=cache_kb, slices=slices,
                           vcores=vcores)
            self._c_admitted.inc()
            self._n_admitted += 1
            return AdmissionResult(
                tenant=tenant.name, admitted=True, reason="admitted",
                cache_kb=cache_kb, slices=slices, vcores=vcores,
                utility=value, marginal_utility=marginal,
            )

    def depart(self, tenant_id: str,
               compact: bool = True) -> TenantRequest:
        """Remove a tenant: free their tiles, maybe compact, mark
        prices stale.  ``compact=False`` skips opportunistic
        defragmentation (used by the fault injector so a churn burst
        is exactly state-neutral).  Returns the departed request.
        """
        with self._t_depart:
            state = self._by_name.pop(tenant_id, None)
            if state is None:
                raise UnknownTenantError(
                    f"unknown tenant {tenant_id!r}", tenant=tenant_id)
            index = self._roster.index(state)
            del self._roster[index]
            self._arena.depart(index)
            self._c_departures.inc()
            self._n_departures += 1
            if self.fabric is not None:
                self.fabric.release(tenant_id)
                if compact and (self.fabric.slice_fragmentation()
                                > self.compaction_threshold):
                    self._compact()
            return state.request

    def resize(self, tenant_id: str, budget: float) -> AdmissionResult:
        """Change a tenant's budget.

        Optimal configurations are budget-independent (``U(B) =
        B^(1/k) * U(1)``), so only the replication factor moves: the
        tenant keeps their ``(cache, slices)`` shape and is re-placed
        with the new VCore count.  A resize the fabric cannot absorb is
        rejected and the old placement restored exactly.
        """
        _check_budget(budget, tenant_id)
        with self._t_resize:
            state = self._by_name.get(tenant_id)
            if state is None:
                raise UnknownTenantError(
                    f"unknown tenant {tenant_id!r}", tenant=tenant_id)
            affordable = self.spot_market().vcores_affordable(
                budget, state.cache_kb, state.slices
            )
            vcores = max(1, min(self.max_vcores, int(affordable)))
            if self.fabric is not None and vcores != state.vcores:
                snapshot = self.fabric.owned_by(tenant_id)
                self.fabric.release(tenant_id)
                if not self._place(tenant_id, state.cache_kb,
                                   state.slices, vcores):
                    # Those exact tiles were just freed: claiming the
                    # snapshot back always succeeds.
                    self.fabric.claim(snapshot, tenant_id)
                    self._n_rejected_capacity += 1
                    self._c_rejected_capacity.inc()
                    return AdmissionResult(
                        tenant=tenant_id, admitted=False,
                        reason="rejected_capacity",
                        cache_kb=state.cache_kb, slices=state.slices,
                        vcores=vcores,
                    )
            old_budget = state.request.budget
            state.request = TenantRequest(
                name=state.request.name,
                benchmark=state.request.benchmark,
                utility=state.request.utility, budget=budget,
            )
            state.vcores = vcores
            if budget != old_budget:
                self._arena.set_budget(self._roster.index(state),
                                       budget)
            self._c_resizes.inc()
            self._n_resizes += 1
            return AdmissionResult(
                tenant=tenant_id, admitted=True, reason="admitted",
                cache_kb=state.cache_kb, slices=state.slices,
                vcores=vcores,
            )

    def step(self) -> StepResult:
        """Warm-started tatonnement from the current price vector.

        Unlike cold batch clearing (which demands at least two rounds
        before accepting convergence), a warm step may converge in a
        single round: at a fixed point demand is already within
        tolerance and prices do not move at all, which is what makes
        submit+depart of the same tenant return *exactly* to the
        pre-submit prices.
        """
        with self._t_step:
            t0 = time.perf_counter()
            if self.force_nonconverge > 0:
                # Fault-injected tatonnement failure: behave exactly
                # like a diverged step that degraded gracefully.
                self.force_nonconverge -= 1
                return self._degraded_step(rounds=0, t0=t0)
            if not self._roster:
                return StepResult(rounds=0, converged=True,
                                  rationed=False,
                                  slice_price=self.slice_price,
                                  bank_price=self.bank_price,
                                  elapsed_s=time.perf_counter() - t0)
            out = self._tatonnement(self.slice_price, self.bank_price,
                                    min_rounds=1,
                                    want_allocations=False)
            if not out["converged"] and self.degrade_on_divergence:
                # Graceful degradation: the diverged prices are never
                # committed - the market keeps serving at the
                # last-known-good vector (= the current one, since
                # ``_tatonnement`` works on locals until committed).
                return self._degraded_step(rounds=out["rounds"], t0=t0)
            self._set_prices(out["slice_price"], out["bank_price"])
            self._c_reprice_rounds.inc(out["rounds"])
            self._n_reprice_rounds += out["rounds"]
            return StepResult(rounds=out["rounds"],
                              converged=out["converged"],
                              rationed=out["rationed"],
                              slice_price=self.slice_price,
                              bank_price=self.bank_price,
                              elapsed_s=time.perf_counter() - t0)

    def _degraded_step(self, rounds: int,
                       t0: Optional[float] = None) -> StepResult:
        """A repricing step that failed: keep last-known-good prices."""
        self._c_degraded.inc()
        self._n_degraded_steps += 1
        self._c_reprice_rounds.inc(rounds)
        self._n_reprice_rounds += rounds
        elapsed = time.perf_counter() - t0 if t0 is not None else 0.0
        return StepResult(rounds=rounds, converged=False,
                          rationed=False,
                          slice_price=self.slice_price,
                          bank_price=self.bank_price,
                          degraded=True, elapsed_s=elapsed)

    def apply(self, event: Event):
        """Dispatch one :class:`Event` to the matching method."""
        if event.kind == "submit":
            return self.submit(event.tenant)
        if event.kind == "depart":
            return self.depart(event.tenant_id)
        return self.resize(event.tenant_id, event.budget)

    def process(self, event: Event, index: int = 0, *,
                strict: bool = True):
        """Apply one event with optional self-healing.

        Strict mode is :meth:`apply`.  Lenient mode
        (``strict=False``) turns every :class:`ServiceError` - an
        unknown tenant, a duplicate submit, a malformed payload - into
        a bounded dead-letter record plus a per-reason counter instead
        of a crashed stream, and returns ``None`` for the rejected
        event.  Anything that is *not* a typed service error still
        raises: lenient mode absorbs bad events, not bugs.
        """
        try:
            return self.apply(event)
        except ServiceError as exc:
            if strict:
                raise
            self._dead_letter(event, exc, index)
            return None

    def run(self, events: Iterable[Event],
            reprice_every: int = 1, *,
            strict: bool = True,
            readmit: bool = False,
            injector=None,
            audit_every: int = 0,
            checkpoint_every: int = 0,
            on_checkpoint: Optional[Callable[[int, dict], None]] = None
            ) -> StreamSummary:
        """Drive a stream of events, repricing every ``reprice_every``
        events (0 disables automatic repricing).

        The defaults reproduce the historical strict loop bit for bit.
        ``strict=False`` dead-letters rejectable events instead of
        raising; ``readmit=True`` re-queues capacity-rejected tenants
        and retries them with capped backoff after departures free
        tiles; ``injector`` perturbs the stream with a seeded
        :class:`~repro.cloud.resilience.FaultInjector`;
        ``audit_every=N`` runs :meth:`verify_invariants` every N
        events; ``checkpoint_every=N`` calls ``on_checkpoint(count,
        snapshot)`` every N events.
        """
        count = 0
        latencies: List[float] = []
        t_run = time.perf_counter()
        for event in events:
            if injector is not None:
                injector.perturb(self, count)
            t_event = time.perf_counter()
            outcome = self.process(event, count, strict=strict)
            if readmit:
                if event.kind == "depart" and outcome is not None:
                    self.readmit_pending(count)
                elif (event.kind == "submit" and outcome is not None
                        and not outcome.admitted
                        and outcome.reason == "rejected_capacity"):
                    self.note_capacity_rejection(event.tenant, count)
            count += 1
            if reprice_every and count % reprice_every == 0:
                self.step()
            latencies.append(time.perf_counter() - t_event)
            if audit_every and count % audit_every == 0:
                self.verify_invariants()
            if (checkpoint_every and on_checkpoint is not None
                    and count % checkpoint_every == 0):
                on_checkpoint(count, self.snapshot())
        return self.summary(events=count,
                            wall_s=time.perf_counter() - t_run,
                            latencies=latencies)

    def summary(self, events: int = 0, *, wall_s: float = 0.0,
                latencies: Optional[List[float]] = None
                ) -> StreamSummary:
        ordered = sorted(latencies) if latencies else []
        return StreamSummary(
            events=events,
            admitted=self._n_admitted,
            rejected_price=self._n_rejected_price,
            rejected_capacity=self._n_rejected_capacity,
            departures=self._n_departures,
            resizes=self._n_resizes,
            reprice_rounds=self._n_reprice_rounds,
            compactions=self._n_compactions,
            active_tenants=len(self._roster),
            slice_price=self.slice_price,
            bank_price=self.bank_price,
            fragmentation=self.fragmentation(),
            dead_letters=sum(self._n_dead_letters.values()),
            degraded_steps=self._n_degraded_steps,
            readmitted=self._n_readmitted,
            retry_pending=len(self._retry_queue),
            wall_s=wall_s,
            latency_p50_ms=_percentile(ordered, 0.50) * 1e3,
            latency_p99_ms=_percentile(ordered, 0.99) * 1e3,
        )

    # ------------------------------------------------------------------
    # self-healing: dead letters and capacity-retry re-admission
    # ------------------------------------------------------------------

    @property
    def dead_letter_counts(self) -> Dict[str, int]:
        """Total dead-lettered events per rejection reason (unbounded
        tallies; the queue itself is bounded)."""
        return dict(self._n_dead_letters)

    def _dead_letter(self, event: Event, exc: ServiceError,
                     index: int) -> None:
        reason = getattr(exc, "reason", "service_error")
        self.dead_letters.append({
            "index": index,
            "kind": event.kind,
            "tenant": event.subject,
            "reason": reason,
            "error": str(exc),
        })
        self._n_dead_letters[reason] = (
            self._n_dead_letters.get(reason, 0) + 1)
        counter = self._dl_counters.get(reason)
        if counter is None:
            counter = self._scope.counter(f"dead_letter.{reason}")
            self._dl_counters[reason] = counter
        counter.inc()

    def note_capacity_rejection(self, tenant: TenantRequest,
                                index: int) -> None:
        """Queue a capacity-rejected tenant for backoff re-admission.

        The queue is bounded and deduplicated by tenant name; the first
        retry becomes eligible ``readmit_backoff`` events later.
        """
        if len(self._retry_queue) >= self.readmit_queue_limit:
            return
        if any(e["tenant"].name == tenant.name
               for e in self._retry_queue):
            return
        self._retry_queue.append({
            "tenant": tenant,
            "attempts": 0,
            "next_event": index + self.readmit_backoff,
        })

    def readmit_pending(self, index: int) -> List[str]:
        """Retry queued capacity rejections; returns readmitted names.

        Meant to run right after departures free tiles.  Each tenant
        gets at most ``readmit_attempts`` tries, spaced by capped
        exponential backoff (``readmit_backoff * 2^attempts`` events,
        capped at ``readmit_backoff_cap``); a price rejection on retry
        means the market moved against them and the entry is dropped.
        """
        if not self._retry_queue:
            return []
        readmitted: List[str] = []
        still: List[Dict[str, Any]] = []
        for entry in self._retry_queue:
            name = entry["tenant"].name
            if name in self._by_name:
                continue  # the stream resubmitted them itself
            if entry["next_event"] > index:
                still.append(entry)
                continue
            outcome = self.submit(entry["tenant"])
            if outcome.admitted:
                readmitted.append(name)
                self._n_readmitted += 1
                self._c_readmitted.inc()
                continue
            entry["attempts"] += 1
            if (outcome.reason == "rejected_capacity"
                    and entry["attempts"] < self.readmit_attempts):
                delay = min(self.readmit_backoff_cap,
                            self.readmit_backoff
                            * (2 ** entry["attempts"]))
                entry["next_event"] = index + delay
                still.append(entry)
            else:
                self._n_retry_exhausted += 1
                self._c_retry_exhausted.inc()
        self._retry_queue = still
        return readmitted

    # ------------------------------------------------------------------
    # batch compatibility (the old one-shot auction)
    # ------------------------------------------------------------------

    def register(self, tenant: TenantRequest) -> None:
        """Add a tenant without admission control or placement - the
        batch-replay path (every bidder participates unconditionally,
        exactly as in the one-shot auction)."""
        self._register(tenant)

    def clear_batch(self, initial_slice_price: float = 2.0,
                    initial_bank_price: float = 1.0) -> ClearingResult:
        """Cold-start clearing over the registered tenants.

        Replays the old ``SpotMarket._clear`` loop - same initial
        prices, same two-round convergence minimum - and leaves the
        service's price vector at the clearing point, so a subsequent
        :meth:`step` warm-starts from it.
        """
        if not self._roster:
            raise ValueError("need at least one bidder")
        out = self._tatonnement(initial_slice_price, initial_bank_price,
                                min_rounds=2)
        self._set_prices(out["slice_price"], out["bank_price"])
        return ClearingResult(
            slice_price=out["slice_price"],
            bank_price=out["bank_price"],
            rounds=out["rounds"],
            converged=out["converged"],
            allocations=out["allocations"],
            slice_supply=self.slice_supply,
            bank_supply=self.bank_supply,
            rationed=out["rationed"],
        )

    # ------------------------------------------------------------------
    # checkpoint / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The full logical service state as a JSON-stable dict.

        Captures everything result-affecting - roster (arrival order),
        per-tenant shapes, prices + price epoch, fabric ownership (in
        claim order), stream tallies, dead letters, and the retry
        queue - but none of the derived caches (stacked tensors, flat
        cost rows, memoized perf rows), which are rebuilt on demand.
        ``json.dumps`` of the snapshot round-trips bit-exactly: Python
        serializes floats via ``repr`` (shortest round-trip form).

        The arena's rows are not serialized: they are pure functions of
        each tenant's profile and utility exponent, recomputed from the
        memoized kernel on restore.  ``"config"`` holds the
        construction shape :meth:`restore` checks, fabric geometry
        included.
        """
        return {
            "version": 2,
            "config": self._config(),
            "prices": {"slice": self.slice_price,
                       "bank": self.bank_price},
            "price_epoch": self._price_epoch,
            "roster": [
                {
                    "name": t.request.name,
                    "benchmark": str(t.request.benchmark),
                    "utility": {
                        "name": t.request.utility.name,
                        "perf_exponent":
                            t.request.utility.perf_exponent,
                    },
                    "budget": t.request.budget,
                    "cache_kb": t.cache_kb,
                    "slices": t.slices,
                    "vcores": t.vcores,
                }
                for t in self._roster
            ],
            "fabric": (self.fabric.snapshot_owners()
                       if self.fabric is not None else None),
            "counters": {
                "admitted": self._n_admitted,
                "rejected_price": self._n_rejected_price,
                "rejected_capacity": self._n_rejected_capacity,
                "departures": self._n_departures,
                "resizes": self._n_resizes,
                "compactions": self._n_compactions,
                "reprice_rounds": self._n_reprice_rounds,
                "degraded_steps": self._n_degraded_steps,
                "readmitted": self._n_readmitted,
                "retry_exhausted": self._n_retry_exhausted,
            },
            "dead_letters": [dict(d) for d in self.dead_letters],
            "dead_letter_counts": dict(self._n_dead_letters),
            "retry_queue": [
                {
                    "tenant": {
                        "name": e["tenant"].name,
                        "benchmark": str(e["tenant"].benchmark),
                        "utility": {
                            "name": e["tenant"].utility.name,
                            "perf_exponent":
                                e["tenant"].utility.perf_exponent,
                        },
                        "budget": e["tenant"].budget,
                    },
                    "attempts": e["attempts"],
                    "next_event": e["next_event"],
                }
                for e in self._retry_queue
            ],
        }

    def _config(self) -> Dict[str, Any]:
        """The construction shape a snapshot must match to restore."""
        fabric = self.fabric
        return {
            "slice_supply": self.slice_supply,
            "bank_supply": self.bank_supply,
            "fixed_cost": self.fixed_cost,
            "fabric_width": fabric.mesh.width if fabric else None,
            "fabric_height": fabric.mesh.height if fabric else None,
            "fabric_bank_columns": fabric.bank_columns if fabric else None,
        }

    def _check_snapshot(self, state: Dict[str, Any]) -> None:
        """Raise :class:`ValueError` unless :meth:`restore` can take
        ``state``: version 2, taken from a service of this one's shape.
        Touches no state."""
        version = state.get("version")
        if version != 2:
            raise ValueError(
                f"unsupported service snapshot version {version!r}; "
                "restore accepts version 2")
        config = state.get("config", {})
        for key, ours in self._config().items():
            theirs = config.get(key, ours)
            if theirs != ours:
                raise ValueError(
                    f"snapshot {key}={theirs!r} does not match this "
                    f"service's {key}={ours!r}")

    def restore(self, state: Dict[str, Any]) -> None:
        """Reset this service to a :meth:`snapshot` - bit-exact resume.

        The snapshot must be version 2, and the service must have been
        constructed with the same shape (supplies, fixed cost, fabric
        width, height and bank columns) as the snapshotting one;
        anything else raises :class:`ValueError` before any state is
        touched.  A restored run continues exactly as the uninterrupted
        one would (proven by the crash/resume equivalence suite).  An
        ``"arena"`` key, which older version-2 snapshots carry, is
        ignored.
        """
        from repro.economics.utility import UtilityFunction

        self._check_snapshot(state)
        self._roster = []
        self._by_name = {}
        self._arena.clear()
        for row in state["roster"]:
            util = row["utility"]
            request = TenantRequest(
                name=row["name"], benchmark=row["benchmark"],
                utility=UtilityFunction(
                    name=util["name"],
                    perf_exponent=util["perf_exponent"]),
                budget=row["budget"],
            )
            self._register(request, cache_kb=row["cache_kb"],
                           slices=row["slices"], vcores=row["vcores"])
        self.slice_price = state["prices"]["slice"]
        self.bank_price = state["prices"]["bank"]
        self._price_epoch = state["price_epoch"]
        self._flat_cost_epoch = -1
        self._spot_market = None
        if self.fabric is not None and state["fabric"] is not None:
            for owner in list(self.fabric.snapshot_owners()):
                self.fabric.release(owner)
            for owner, nodes in state["fabric"].items():
                self.fabric.claim(nodes, owner)
        counters = state["counters"]
        self._n_admitted = counters["admitted"]
        self._n_rejected_price = counters["rejected_price"]
        self._n_rejected_capacity = counters["rejected_capacity"]
        self._n_departures = counters["departures"]
        self._n_resizes = counters["resizes"]
        self._n_compactions = counters["compactions"]
        self._n_reprice_rounds = counters["reprice_rounds"]
        self._n_degraded_steps = counters.get("degraded_steps", 0)
        self._n_readmitted = counters.get("readmitted", 0)
        self._n_retry_exhausted = counters.get("retry_exhausted", 0)
        self.dead_letters.clear()
        self.dead_letters.extend(dict(d)
                                 for d in state.get("dead_letters", ()))
        self._n_dead_letters = dict(state.get("dead_letter_counts", {}))
        self._retry_queue = []
        for entry in state.get("retry_queue", ()):
            row = entry["tenant"]
            util = row["utility"]
            self._retry_queue.append({
                "tenant": TenantRequest(
                    name=row["name"], benchmark=row["benchmark"],
                    utility=UtilityFunction(
                        name=util["name"],
                        perf_exponent=util["perf_exponent"]),
                    budget=row["budget"],
                ),
                "attempts": entry["attempts"],
                "next_event": entry["next_event"],
            })
        self.force_nonconverge = 0

    def verify_invariants(self) -> None:
        """Audit the service state; raises
        :class:`~repro.cloud.errors.InvariantViolation` on corruption.
        See :func:`repro.cloud.resilience.verify_invariants`."""
        from repro.cloud.resilience import verify_invariants

        verify_invariants(self)

    # ------------------------------------------------------------------
    # internals: admission economics
    # ------------------------------------------------------------------

    def _best_at_prices(self, tenant: TenantRequest
                        ) -> Tuple[float, int, float]:
        """``(cache_kb, slices, utility_at_budget)`` at current prices.

        Works on epoch-cached flat tensors instead of binding a
        throwaway :class:`Market` into the kernel: price vectors change
        continuously, so per-market memoization would grow without
        bound over an event stream.
        """
        k = tenant.utility.perf_exponent
        perf_k = self.kernel.perf_pow_row(tenant.benchmark, k)
        cost = self._flat_cost_row()
        vcores = tenant.budget / cost
        utility = (vcores ** (1.0 / k)) * perf_k
        winner = int(np.argmax(utility))
        ci, si = divmod(winner, len(self.slice_grid))
        return (self.cache_grid[ci], self.slice_grid[si],
                float(utility[winner]))

    def _flat_cost_row(self):
        """Flat per-VCore cost over the grid at the current prices."""
        if self._flat_cost_epoch != self._price_epoch:
            self._flat_cost = self._cost(self.slice_price,
                                         self.bank_price)
            self._flat_cost_epoch = self._price_epoch
        return self._flat_cost

    def _cost(self, slice_price: float, bank_price: float):
        """Per-VCore cost of every configuration at these prices: the
        one cost formula admission and repricing share."""
        return (bank_price * self._flat_banks
                + slice_price * self._flat_slices + self.fixed_cost)

    def _set_prices(self, slice_price: float, bank_price: float) -> None:
        if (slice_price != self.slice_price
                or bank_price != self.bank_price):
            self.slice_price = slice_price
            self.bank_price = bank_price
            self._price_epoch += 1

    def _register(self, tenant: TenantRequest, cache_kb: float = 0.0,
                  slices: int = 0, vcores: int = 0) -> None:
        # The kernel memoizes P^k per (profile, exponent): the row the
        # arena copies.
        k = tenant.utility.perf_exponent
        row = self.kernel.perf_pow_row(tenant.benchmark, k)
        state = _TenantState(tenant, cache_kb=cache_kb, slices=slices,
                             vcores=vcores)
        self._roster.append(state)
        self._by_name[tenant.name] = state
        self._arena.submit(row, 1.0 / k, tenant.budget)

    # ------------------------------------------------------------------
    # internals: tatonnement (shared with the batch auction)
    # ------------------------------------------------------------------

    def _allocations(self, winner, v_best, utility) -> List[Allocation]:
        """The roster's allocations from one round's arrays."""
        n_slices = len(self.slice_grid)
        best = utility[np.arange(len(winner)), winner]
        allocations = []
        for state, w, v, u in zip(self._roster, winner.tolist(),
                                  v_best.tolist(), best.tolist()):
            ci, si = divmod(w, n_slices)
            allocations.append(Allocation(
                bidder=state.request.name, cache_kb=self.cache_grid[ci],
                slices=self.slice_grid[si], vcores=v, utility=u))
        return allocations

    def _tatonnement(self, slice_price: float, bank_price: float,
                     min_rounds: int,
                     want_allocations: bool = True) -> dict:
        """Damped price adjustment until excess demand is tolerable.

        ``min_rounds=2`` reproduces the batch auction's cold-start
        contract (never accept the arbitrary initial prices unseen);
        ``min_rounds=1`` is the warm-start mode, where converging on
        the very first round leaves prices untouched.

        Each round is one vectorized best response over the arena's
        contiguous active view (tenants in arrival order): cost, every
        tenant's utility over the grid, the row argmax, the chosen
        VCore count and both demands.  Everything that does not depend
        on the prices is read once, before the first round.  The
        arithmetic is pinned bit for bit (DESIGN.md §10, "Lean
        rounds"): ``v_best`` is the same division that produced the
        winning utility's VCore count, and each demand is a contiguous
        row of one ``(2, n)`` array, so ``sum(axis=1)`` reduces it
        pairwise like ``np.sum`` of a 1-D product (an ``(n, 2)`` array
        summed over ``axis=0`` would add sequentially and round
        differently).
        """
        view = self._arena.active_view()
        perf_k, inv_k, budgets = (view["perf_k"], view["inv_k"],
                                  view["budgets"])
        budget_col = budgets[:, 0]
        resources = self._resources
        slice_supply = self.slice_supply
        bank_supply = self.bank_supply
        tolerance = self.tolerance
        rate = self.adjustment_rate
        floor = 0.01
        at_floor_price = floor * 1.01
        winner = v_best = utility = None
        converged = False
        rationed = False
        stable_rounds = 0
        last_demand = (None, None)
        rounds = 0
        for rounds in range(1, self.max_rounds + 1):
            cost = self._cost(slice_price, bank_price)
            utility = (budgets / cost) ** inv_k * perf_k
            winner = utility.argmax(axis=1)
            v_best = budget_col / cost.take(winner)
            slice_demand, bank_demand = (
                resources.take(winner, axis=1) * v_best).sum(
                    axis=1).tolist()
            slice_excess = slice_demand / slice_supply - 1.0
            bank_excess = bank_demand / bank_supply - 1.0
            # Cleared: no over-demand on either resource (free
            # disposal; see the auction module for the rationale).
            no_overdemand = (slice_excess <= tolerance
                             and bank_excess <= tolerance)
            if rounds >= min_rounds and no_overdemand and (
                slice_excess >= -tolerance
                or bank_excess >= -tolerance
                or (slice_price <= at_floor_price
                    and bank_price <= at_floor_price)
            ):
                converged = True
                break
            # Lumpy demand: settle and ration after 5 stable rounds.
            demand = (round(slice_demand, 1), round(bank_demand, 1))
            stable_rounds = (stable_rounds + 1 if demand == last_demand
                             else 0)
            last_demand = demand
            if stable_rounds >= 5:
                converged = True
                rationed = not no_overdemand
                break
            k = rate / (1.0 + rounds / 40.0)
            slice_price = max(
                floor, slice_price * math.exp(k * _clamp(slice_excess)))
            bank_price = max(
                floor, bank_price * math.exp(k * _clamp(bank_excess)))
        allocations: List[Allocation] = []
        if want_allocations and winner is not None:
            # Warm steps discard allocations (StepResult carries only
            # prices), so they skip this construction.
            allocations = self._allocations(winner, v_best, utility)
        return {
            "slice_price": slice_price,
            "bank_price": bank_price,
            "rounds": rounds,
            "converged": converged,
            "rationed": rationed,
            "allocations": allocations,
        }

    # ------------------------------------------------------------------
    # internals: fabric placement
    # ------------------------------------------------------------------

    def _place(self, owner: str, cache_kb: float, slices: int,
               vcores: int) -> bool:
        """Place ``vcores`` VCores of one shape; all-or-nothing."""
        banks_per = int(round(cache_kb / BANK_KB))
        for _ in range(vcores):
            run = self.fabric.find_contiguous_slices(slices)
            if run is None:
                self.fabric.release(owner)
                return False
            try:
                self.fabric.claim(run, owner)
                if banks_per:
                    banks = self.fabric.find_nearest_banks(run[0],
                                                           banks_per)
                    self.fabric.claim(banks, owner)
            except AllocationError:
                self.fabric.release(owner)
                return False
        return True

    def _compact(self) -> None:
        """Opportunistic defragmentation after a departure.

        Paper Section 3: all Slices are interchangeable, so "fixing
        fragmentation problems is as simple as rescheduling Slices to
        VCores".  Every placement is lifted and re-packed widest-VCore
        first; if the re-pack cannot place someone (first-fit is not
        optimal), the exact previous tiling is restored - the tiles
        were only ever released, so the snapshot is always claimable.
        """
        snapshot = {
            t.request.name: self.fabric.owned_by(t.request.name)
            for t in self._roster
        }
        order = sorted(
            self._roster,
            key=lambda t: (-t.slices, -t.vcores, t.request.name),
        )
        for state in self._roster:
            self.fabric.release(state.request.name)
        for state in order:
            if not self._place(state.request.name, state.cache_kb,
                               state.slices, state.vcores):
                for other in order:
                    self.fabric.release(other.request.name)
                for name, nodes in snapshot.items():
                    if nodes:
                        self.fabric.claim(nodes, name)
                return
        self._c_compactions.inc()
        self._n_compactions += 1
