"""Deterministic fault injection and invariant auditing for the
streaming allocation service.

A million-event run is only trustworthy if the service provably
survives the events a real datacenter feeds it: malformed payloads,
duplicate submits, departures of tenants nobody admitted, churn
bursts, repricing rounds that refuse to converge, and the process
simply dying.  This module makes all of those *reproducible*:

* :class:`FaultPlan` - a seeded, immutable schedule mapping event
  indices to fault kinds.  Same ``(num_events, rate, seed)`` - same
  plan, forever; a chaos failure is a one-line repro.
* :class:`FaultInjector` - fires a plan against a live
  :class:`~repro.cloud.service.AllocationService` run.  Rejectable
  faults are applied through the service's lenient path (so they land
  in the dead-letter queue); churn bursts are submit+depart pairs
  engineered to be exactly state-neutral; ``nonconverge`` arms the
  graceful-degradation path; ``crash`` raises
  :class:`~repro.cloud.errors.SimulatedCrash` for the
  checkpoint/restore machinery to absorb.
* :func:`verify_invariants` - the auditor: fabric tile conservation,
  placement/roster agreement, positive finite prices, stacked-tensor
  coherence.  Cheap enough to run every N events of a chaos stream.
* checkpoint helpers - atomic JSON save/load plus ``random.Random``
  state (de)serialization, shared by the stream driver's
  crash/resume path.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cloud.errors import InvariantViolation, SimulatedCrash
from repro.cloud.fabric import TileKind
from repro.cloud.service import (
    AllocationService,
    Event,
    TenantRequest,
)
from repro.economics.market import BANK_KB

#: Every fault kind the injector understands.
FAULT_KINDS = ("malformed", "duplicate", "unknown", "churn_burst",
               "nonconverge", "crash")

#: Kinds whose injection provably leaves the service state (roster,
#: prices, fabric) untouched - the set a lenient faulty run can carry
#: while still finishing bit-identical to a strict clean run.
STATE_NEUTRAL_KINDS = ("malformed", "duplicate", "unknown",
                       "churn_burst")

#: Default mix for `--faults`: everything survivable in one process
#: (``crash`` is only injected when a checkpoint/restore harness asks
#: for it explicitly).
DEFAULT_INJECT_KINDS = ("malformed", "duplicate", "unknown",
                        "churn_burst", "nonconverge")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: fire ``kind`` before event ``index``."""

    index: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"known: {', '.join(FAULT_KINDS)}")
        if self.index < 0:
            raise ValueError("fault index cannot be negative")


class FaultPlan:
    """An immutable schedule of :class:`FaultEvent`\\ s.

    Construction is either explicit (a test pinning exact faults) or
    :meth:`seeded` - a deterministic Bernoulli draw per event index,
    so the same parameters always produce the same plan.
    """

    def __init__(self, faults: Iterable[FaultEvent] = ()):
        self.faults: Tuple[FaultEvent, ...] = tuple(
            sorted(faults, key=lambda f: (f.index, f.kind)))
        by_index: Dict[int, List[FaultEvent]] = {}
        for fault in self.faults:
            by_index.setdefault(fault.index, []).append(fault)
        self._by_index = {i: tuple(fs) for i, fs in by_index.items()}

    @classmethod
    def seeded(cls, num_events: int, rate: float, seed: int,
               kinds: Sequence[str] = DEFAULT_INJECT_KINDS
               ) -> "FaultPlan":
        """A deterministic plan: each event index draws a fault with
        probability ``rate``, its kind uniform over ``kinds``."""
        if not 0.0 <= rate <= 1.0:
            raise ValueError("fault rate must be in [0, 1]")
        if rate > 0 and not kinds:
            raise ValueError("need at least one fault kind")
        rng = random.Random(seed)
        faults = [
            FaultEvent(index, kinds[rng.randrange(len(kinds))])
            for index in range(num_events)
            if rng.random() < rate
        ]
        return cls(faults)

    def at(self, index: int) -> Tuple[FaultEvent, ...]:
        return self._by_index.get(index, ())

    def without(self, index: int,
                kind: Optional[str] = None) -> "FaultPlan":
        """A copy of the plan minus the fault(s) at ``index``
        (optionally only those of ``kind``) - how a resume harness
        disarms a crash that already fired once."""
        return FaultPlan(f for f in self.faults
                         if not (f.index == index
                                 and (kind is None or f.kind == kind)))

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for fault in self.faults:
            out[fault.kind] = out.get(fault.kind, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)


class FaultInjector:
    """Fires a :class:`FaultPlan` against a live service run.

    The run loop calls :meth:`perturb` once per event index *before*
    applying the real event.  Every injected fault is tallied in
    :attr:`counts`, so a chaos test can reconcile injections against
    the service's dead-letter / degradation counters exactly.
    """

    #: Submit+depart pairs per churn burst.
    BURST_SIZE = 3

    def __init__(self, plan: FaultPlan, seed: int = 0):
        self.plan = plan
        self.rng = random.Random(seed)
        self.counts: Dict[str, int] = {}
        self._serial = 0
        self._benchmarks: Optional[List[str]] = None
        self._utilities = None

    def perturb(self, service: AllocationService, index: int) -> None:
        """Fire every fault scheduled at ``index``."""
        for fault in self.plan.at(index):
            self.counts[fault.kind] = self.counts.get(fault.kind, 0) + 1
            getattr(self, f"_fire_{fault.kind}")(service, index)

    # -- fault payloads -------------------------------------------------

    def _fire_crash(self, service: AllocationService,
                    index: int) -> None:
        raise SimulatedCrash(index)

    def _fire_nonconverge(self, service: AllocationService,
                          index: int) -> None:
        service.force_nonconverge += 1

    def _fire_malformed(self, service: AllocationService,
                        index: int) -> None:
        # A resize with a non-positive budget: passes Event
        # construction, rejected by the service with
        # EventValidationError (or UnknownTenantError for a ghost).
        target = self._pick_active(service) or self._ghost()
        event = Event(kind="resize", tenant_id=target,
                      budget=-self.rng.uniform(0.0, 10.0) - 0.001)
        service.process(event, index, strict=False)

    def _fire_duplicate(self, service: AllocationService,
                        index: int) -> None:
        target = self._pick_active(service)
        if target is None:
            # Empty roster: duplicates are impossible; inject an
            # unknown-tenant fault instead (still accounted, still
            # dead-lettered).
            self._fire_unknown(service, index)
            return
        event = Event(kind="submit", tenant=service.tenant(target))
        service.process(event, index, strict=False)

    def _fire_unknown(self, service: AllocationService,
                      index: int) -> None:
        ghost = self._ghost()
        if self.rng.random() < 0.5:
            event = Event(kind="depart", tenant_id=ghost)
        else:
            event = Event(kind="resize", tenant_id=ghost,
                          budget=self.rng.uniform(12.0, 48.0))
        service.process(event, index, strict=False)

    def _fire_churn_burst(self, service: AllocationService,
                          index: int) -> None:
        """A burst of arrivals that immediately depart: net-zero state.

        Each admitted chaos tenant departs with ``compact=False``
        (release exactly undoes the placement), no repricing happens
        inside the burst, and rejected submits never touch state - so
        roster, prices, and fabric are bit-identical before and after
        the burst.  Only the counters move.
        """
        from repro.economics.utility import STANDARD_UTILITIES
        from repro.trace.profiles import PROFILES

        if self._benchmarks is None:
            self._benchmarks = sorted(PROFILES)
            self._utilities = list(STANDARD_UTILITIES)
        for _ in range(self.BURST_SIZE):
            self._serial += 1
            request = TenantRequest(
                name=f"chaos{self._serial}",
                benchmark=self._benchmarks[
                    self.rng.randrange(len(self._benchmarks))],
                utility=self._utilities[
                    self.rng.randrange(len(self._utilities))],
                budget=self.rng.uniform(12.0, 48.0),
            )
            outcome = service.process(
                Event(kind="submit", tenant=request), index,
                strict=False)
            if outcome is not None and outcome.admitted:
                service.depart(request.name, compact=False)

    # -- checkpoint surface ---------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-stable injector state (rng, chaos-name serial, tallies)
        so a crash/resume run replays the exact same fault payloads."""
        return {"rng_state": rng_state_to_json(self.rng.getstate()),
                "serial": self._serial,
                "counts": dict(self.counts)}

    def restore(self, state: Dict[str, Any]) -> None:
        self.rng.setstate(rng_state_from_json(state["rng_state"]))
        self._serial = int(state["serial"])
        self.counts = {str(k): int(v)
                       for k, v in state["counts"].items()}

    # -- helpers --------------------------------------------------------

    def _pick_active(self, service: AllocationService) -> Optional[str]:
        active = service.active_tenants
        if not active:
            return None
        return active[self.rng.randrange(len(active))]

    def _ghost(self) -> str:
        return f"ghost{self.rng.randrange(1 << 30)}"


# ----------------------------------------------------------------------
# invariant auditing
# ----------------------------------------------------------------------

def verify_invariants(service: AllocationService) -> None:
    """Audit a service's cross-layer invariants; raise
    :class:`~repro.cloud.errors.InvariantViolation` listing every
    violation found.

    Checks, in order: positive finite prices; roster/name-index
    agreement; tensor-arena coherence (active view in roster order,
    budgets matching the roster, slot index and free list consistent);
    fabric tile conservation (free counts + owned counts cover every
    tile exactly once); and per-tenant placement shape
    (``vcores * slices`` slice tiles, ``vcores * banks_per`` bank
    tiles, no foreign owners).
    """
    problems: List[str] = []

    for label, price in (("slice", service.slice_price),
                         ("bank", service.bank_price)):
        if not (math.isfinite(price) and price > 0):
            problems.append(f"{label}_price {price!r} not positive "
                            "finite")

    roster_names = [t.request.name for t in service._roster]
    if len(set(roster_names)) != len(roster_names):
        problems.append("duplicate names in roster")
    if set(roster_names) != set(service._by_name):
        problems.append(
            f"roster/by-name disagree: {len(roster_names)} roster vs "
            f"{len(service._by_name)} indexed")
    for name, state in service._by_name.items():
        if state.request.name != name:
            problems.append(f"by-name key {name!r} holds tenant "
                            f"{state.request.name!r}")

    arena = service._arena
    if arena.n_active != len(service._roster):
        problems.append(
            f"tensor arena has {arena.n_active} active rows for "
            f"{len(service._roster)} tenants")
    elif arena.order != roster_names:
        problems.append("arena active view not in roster order")
    else:
        budgets = [float(b)
                   for b in arena.view_budgets[:arena.n_active, 0]]
        expect = [t.request.budget for t in service._roster]
        if budgets != expect:
            problems.append("arena budgets diverge from roster "
                            "budgets")
    if set(arena.slot_of) != set(roster_names):
        problems.append("arena slot index disagrees with roster")
    used = set(arena.slot_of.values())
    if len(used) != len(arena.slot_of):
        problems.append("two tenants share one arena slot")
    free = set(arena.free_slots)
    if free & used:
        problems.append("arena free list overlaps used slots")
    if any(s >= arena.capacity for s in used | free):
        problems.append("arena slot beyond capacity")

    fabric = service.fabric
    if fabric is not None:
        owned = fabric.snapshot_owners()
        owned_nodes: List[int] = []
        for nodes in owned.values():
            owned_nodes.extend(nodes)
        if len(set(owned_nodes)) != len(owned_nodes):
            problems.append("a fabric tile has two owners")
        by_kind = {TileKind.SLICE: 0, TileKind.BANK: 0}
        for node in owned_nodes:
            by_kind[fabric.kind(node)] += 1
        for kind, total in ((TileKind.SLICE, fabric.num_slices),
                            (TileKind.BANK, fabric.num_banks)):
            free = fabric.free_count(kind)
            if free + by_kind[kind] != total:
                problems.append(
                    f"{kind.value} conservation broken: {free} free + "
                    f"{by_kind[kind]} owned != {total} total")
        foreign = set(owned) - set(roster_names)
        if foreign:
            problems.append("fabric owners not in roster: "
                            + ", ".join(sorted(foreign)[:5]))
        for state in service._roster:
            name = state.request.name
            if state.vcores <= 0:
                continue
            nodes = owned.get(name, [])
            slices = sum(1 for n in nodes
                         if fabric.kind(n) is TileKind.SLICE)
            banks = sum(1 for n in nodes
                        if fabric.kind(n) is TileKind.BANK)
            want_slices = state.vcores * state.slices
            want_banks = (state.vcores
                          * int(round(state.cache_kb / BANK_KB)))
            if slices != want_slices:
                problems.append(
                    f"{name}: owns {slices} slice tiles, placement "
                    f"says {want_slices}")
            if banks != want_banks:
                problems.append(
                    f"{name}: owns {banks} bank tiles, placement "
                    f"says {want_banks}")

    if problems:
        raise InvariantViolation("; ".join(problems))


# ----------------------------------------------------------------------
# checkpoint helpers
# ----------------------------------------------------------------------

def rng_state_to_json(state: tuple) -> list:
    """``random.Random.getstate()`` as a JSON-stable list."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]

def rng_state_from_json(data: Sequence[Any]) -> tuple:
    """Inverse of :func:`rng_state_to_json`."""
    version, internal, gauss_next = data
    return (version, tuple(internal), gauss_next)


def save_checkpoint(path: str, payload: Dict[str, Any]) -> None:
    """Atomically write a checkpoint JSON (write-temp + rename, so a
    crash mid-write can never leave a truncated checkpoint)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def load_checkpoint(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
