"""Fault injection, invariant auditing, and checkpoint/restore."""

import json

import pytest

from repro.cloud.errors import InvariantViolation, SimulatedCrash
from repro.cloud.fabric import Fabric
from repro.cloud.resilience import (
    DEFAULT_INJECT_KINDS,
    FAULT_KINDS,
    STATE_NEUTRAL_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    load_checkpoint,
    rng_state_from_json,
    rng_state_to_json,
    save_checkpoint,
    verify_invariants,
)
from repro.cloud.service import AllocationService, Event, TenantRequest
from repro.economics.utility import UTILITY1, UTILITY2


def tenant(name, budget=24.0, utility=UTILITY2):
    return TenantRequest(name=name, benchmark="gcc",
                         utility=utility, budget=budget)


def rack_service(**kwargs):
    return AllocationService(fabric=Fabric(16, 8), **kwargs)


def state_fingerprint(service):
    """Everything a state-neutral fault must leave untouched."""
    snap = service.snapshot()
    return (snap["prices"], snap["roster"], snap["fabric"])


class TestFaultPlan:
    def test_seeded_is_deterministic(self):
        a = FaultPlan.seeded(5000, 0.05, seed=9)
        b = FaultPlan.seeded(5000, 0.05, seed=9)
        assert list(a) == list(b)
        assert len(a) > 0

    def test_different_seeds_differ(self):
        a = FaultPlan.seeded(5000, 0.05, seed=1)
        b = FaultPlan.seeded(5000, 0.05, seed=2)
        assert list(a) != list(b)

    def test_rate_zero_is_empty(self):
        assert len(FaultPlan.seeded(1000, 0.0, seed=3)) == 0

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            FaultPlan.seeded(10, 1.5, seed=0)
        with pytest.raises(ValueError):
            FaultPlan.seeded(10, 0.5, seed=0, kinds=())

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(0, "meteor")
        with pytest.raises(ValueError):
            FaultEvent(-1, "crash")

    def test_at_and_counts(self):
        plan = FaultPlan([FaultEvent(3, "crash"),
                          FaultEvent(3, "unknown"),
                          FaultEvent(7, "duplicate")])
        assert {f.kind for f in plan.at(3)} == {"crash", "unknown"}
        assert plan.at(5) == ()
        assert plan.counts() == {"crash": 1, "unknown": 1,
                                 "duplicate": 1}

    def test_without_disarms_one_crash(self):
        plan = FaultPlan([FaultEvent(3, "crash"),
                          FaultEvent(3, "unknown"),
                          FaultEvent(9, "crash")])
        disarmed = plan.without(3, kind="crash")
        assert {f.kind for f in disarmed.at(3)} == {"unknown"}
        assert {f.kind for f in disarmed.at(9)} == {"crash"}

    def test_kind_taxonomy_is_consistent(self):
        assert set(STATE_NEUTRAL_KINDS) < set(FAULT_KINDS)
        assert set(DEFAULT_INJECT_KINDS) < set(FAULT_KINDS)
        assert "crash" not in DEFAULT_INJECT_KINDS
        assert "nonconverge" not in STATE_NEUTRAL_KINDS


class TestFaultInjector:
    def test_crash_raises_simulated_crash(self):
        injector = FaultInjector(FaultPlan([FaultEvent(4, "crash")]))
        service = rack_service()
        injector.perturb(service, 3)  # nothing scheduled
        with pytest.raises(SimulatedCrash) as exc:
            injector.perturb(service, 4)
        assert exc.value.index == 4

    def test_nonconverge_degrades_next_step(self):
        service = rack_service()
        service.submit(tenant("a"))
        injector = FaultInjector(
            FaultPlan([FaultEvent(0, "nonconverge")]))
        before = service.prices()
        injector.perturb(service, 0)
        result = service.step()
        assert result.degraded and not result.converged
        assert service.prices() == before
        assert service.summary().degraded_steps == 1
        # The very next step is healthy again.
        assert not service.step().degraded

    def test_malformed_and_unknown_are_dead_lettered(self):
        service = rack_service()
        service.submit(tenant("a"))
        plan = FaultPlan([FaultEvent(0, "malformed"),
                          FaultEvent(1, "unknown")])
        injector = FaultInjector(plan, seed=5)
        injector.perturb(service, 0)
        injector.perturb(service, 1)
        assert sum(service.dead_letter_counts.values()) == 2
        assert injector.counts == {"malformed": 1, "unknown": 1}

    def test_duplicate_dead_letters_active_tenant(self):
        service = rack_service()
        service.submit(tenant("a"))
        injector = FaultInjector(
            FaultPlan([FaultEvent(0, "duplicate")]))
        injector.perturb(service, 0)
        assert service.dead_letter_counts == {"duplicate_tenant": 1}
        assert service.dead_letters[-1]["tenant"] == "a"

    def test_duplicate_on_empty_roster_falls_back_to_unknown(self):
        service = rack_service()
        injector = FaultInjector(
            FaultPlan([FaultEvent(0, "duplicate")]))
        injector.perturb(service, 0)
        assert service.dead_letter_counts == {"unknown_tenant": 1}

    def test_state_neutral_kinds_leave_state_untouched(self):
        for kind in STATE_NEUTRAL_KINDS:
            service = rack_service()
            service.submit(tenant("a"))
            service.submit(tenant("b", budget=30.0, utility=UTILITY1))
            service.step()
            before = state_fingerprint(service)
            injector = FaultInjector(FaultPlan([FaultEvent(0, kind)]),
                                     seed=11)
            injector.perturb(service, 0)
            assert state_fingerprint(service) == before, kind

    def test_injector_snapshot_restore_round_trip(self):
        plan = FaultPlan([FaultEvent(i, "churn_burst")
                          for i in range(4)])
        a = FaultInjector(plan, seed=7)
        b = FaultInjector(plan, seed=7)
        service_a = rack_service()
        service_b = rack_service()
        a.perturb(service_a, 0)
        a.perturb(service_a, 1)
        state = json.loads(json.dumps(a.snapshot()))
        b.restore(state)
        assert b.counts == a.counts
        a.perturb(service_a, 2)
        b.perturb(service_b, 2)
        # Same rng draws and chaos-name serial after restore.
        assert a.snapshot() == b.snapshot()


class TestDeadLetterQueue:
    def test_queue_is_bounded_counts_are_not(self):
        service = rack_service(dead_letter_limit=4)
        for i in range(10):
            service.process(Event(kind="depart", tenant_id=f"g{i}"),
                            i, strict=False)
        assert len(service.dead_letters) == 4
        assert service.dead_letter_counts == {"unknown_tenant": 10}
        assert [d["tenant"] for d in service.dead_letters] == \
            ["g6", "g7", "g8", "g9"]

    def test_strict_mode_still_raises(self):
        service = rack_service()
        with pytest.raises(KeyError):
            service.process(Event(kind="depart", tenant_id="ghost"),
                            0, strict=True)
        assert not service.dead_letters

    def test_records_are_json_stable(self):
        service = rack_service()
        service.process(Event(kind="resize", tenant_id="ghost",
                              budget=5.0), 3, strict=False)
        record = service.dead_letters[-1]
        assert json.loads(json.dumps(record)) == record
        assert record["index"] == 3
        assert record["reason"] == "unknown_tenant"


class TestReadmission:
    def test_backoff_schedule(self):
        service = rack_service(readmit_backoff=8)
        service.note_capacity_rejection(tenant("late"), index=0)
        # Not eligible before the backoff expires.
        assert service.readmit_pending(5) == []
        assert service.summary().retry_pending == 1

    def test_queue_deduplicates_and_bounds(self):
        service = rack_service(readmit_queue_limit=2)
        service.note_capacity_rejection(tenant("a"), 0)
        service.note_capacity_rejection(tenant("a"), 1)
        service.note_capacity_rejection(tenant("b"), 2)
        service.note_capacity_rejection(tenant("c"), 3)
        assert service.summary().retry_pending == 2

    def test_readmits_after_capacity_frees(self):
        service = rack_service(readmit_backoff=1)
        # Fill the rack until someone bounces on capacity.
        rejected = None
        for i in range(64):
            result = service.submit(tenant(f"t{i}", budget=40.0))
            if not result.admitted:
                assert result.reason == "rejected_capacity"
                rejected = f"t{i}"
                break
        assert rejected is not None
        service.note_capacity_rejection(service_tenant(rejected), 0)
        # Free enough capacity, then retry past the backoff horizon.
        for name in list(service.active_tenants)[:4]:
            service.depart(name)
        readmitted = service.readmit_pending(10)
        assert readmitted == [rejected]
        assert rejected in service.active_tenants
        assert service.summary().readmitted == 1

    def test_skips_tenants_the_stream_already_resubmitted(self):
        service = rack_service(readmit_backoff=1)
        service.note_capacity_rejection(tenant("a"), 0)
        service.submit(tenant("a"))
        assert service.readmit_pending(10) == []
        assert service.summary().retry_pending == 0

    def test_attempts_are_capped(self):
        service = rack_service(readmit_attempts=2, readmit_backoff=1,
                               readmit_backoff_cap=2)
        # Keep the rack full so every retry re-bounces on capacity.
        for i in range(64):
            if not service.submit(tenant(f"t{i}", budget=40.0)).admitted:
                break
        service.note_capacity_rejection(tenant("late", budget=40.0), 0)
        index = 0
        for _ in range(10):
            index += 4
            service.readmit_pending(index)
            if service.summary().retry_pending == 0:
                break
        assert service.summary().retry_pending == 0
        assert "late" not in service.active_tenants


def service_tenant(name, budget=40.0):
    return TenantRequest(name=name, benchmark="gcc",
                         utility=UTILITY2, budget=budget)


class TestInvariants:
    def test_clean_service_passes(self):
        service = rack_service()
        for i in range(6):
            service.submit(tenant(f"t{i}", budget=20.0 + i))
        service.step()
        verify_invariants(service)
        service.verify_invariants()  # method alias

    def test_detects_foreign_fabric_owner(self):
        service = rack_service()
        service.submit(tenant("a"))
        run = service.fabric.find_contiguous_slices(1)
        service.fabric.claim(run, "ghost")
        with pytest.raises(InvariantViolation) as exc:
            verify_invariants(service)
        assert "ghost" in str(exc.value)

    def test_detects_roster_index_divergence(self):
        service = rack_service()
        service.submit(tenant("a"))
        service._by_name["phantom"] = service._by_name["a"]
        with pytest.raises(InvariantViolation):
            verify_invariants(service)

    def test_detects_arena_row_divergence(self):
        service = rack_service()
        for i in range(2):
            service.submit(tenant(f"t{i}", budget=20.0 + i))
        assert service.active_tenants == ["t0", "t1"]
        verify_invariants(service)
        service._arena.perf_k[0, 5] += 1.0
        with pytest.raises(InvariantViolation) as exc:
            verify_invariants(service)
        assert "t0" in str(exc.value) and "t1" not in str(exc.value)

    def test_detects_bad_prices(self):
        service = rack_service()
        service.slice_price = -1.0
        with pytest.raises(InvariantViolation) as exc:
            verify_invariants(service)
        assert "slice_price" in str(exc.value)


class TestCheckpointHelpers:
    def test_rng_state_round_trip(self):
        import random

        rng = random.Random(42)
        rng.random()
        state = json.loads(json.dumps(rng_state_to_json(rng.getstate())))
        clone = random.Random()
        clone.setstate(rng_state_from_json(state))
        assert [rng.random() for _ in range(5)] == \
            [clone.random() for _ in range(5)]

    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "sub" / "ckpt.json")
        payload = {"a": [1, 2.5, "x"], "b": {"c": None}}
        save_checkpoint(path, payload)
        assert load_checkpoint(path) == payload
        # Atomic write leaves no temp file behind.
        assert list((tmp_path / "sub").iterdir()) == \
            [tmp_path / "sub" / "ckpt.json"]


class TestServiceSnapshot:
    def build(self):
        service = rack_service()
        for i in range(5):
            service.submit(tenant(f"t{i}", budget=18.0 + 3 * i))
        service.step()
        assert service.active_tenants
        service.depart(service.active_tenants[0])
        service.process(Event(kind="depart", tenant_id="ghost"),
                        7, strict=False)
        service.note_capacity_rejection(tenant("late"), 8)
        return service

    def test_snapshot_json_round_trips(self):
        service = self.build()
        snap = service.snapshot()
        assert json.loads(json.dumps(snap)) == snap

    def test_restore_is_bit_exact(self):
        service = self.build()
        snap = json.loads(json.dumps(service.snapshot()))
        clone = rack_service()
        clone.restore(snap)
        assert clone.snapshot() == service.snapshot()
        # Both copies evolve identically afterwards.
        for svc in (service, clone):
            svc.submit(tenant("next", budget=21.0))
            svc.step()
        assert clone.snapshot() == service.snapshot()

    def test_restore_rejects_config_mismatch(self):
        snap = self.build().snapshot()
        other = AllocationService(slice_supply=4.0, bank_supply=4.0)
        with pytest.raises(ValueError):
            other.restore(snap)

    def _rejects_untouched(self, target, snap, match):
        """``restore(snap)`` raises a one-line ValueError and leaves
        ``target`` exactly as it was."""
        before = target.snapshot()
        with pytest.raises(ValueError, match=match) as info:
            target.restore(snap)
        assert "\n" not in str(info.value)
        assert target.snapshot() == before

    @pytest.mark.parametrize("version", [None, 1, 3])
    def test_restore_rejects_unsupported_versions(self, version):
        snap = json.loads(json.dumps(self.build().snapshot()))
        if version is None:
            del snap["version"]
        else:
            snap["version"] = version
        target = rack_service()
        target.submit(tenant("resident", budget=30.0))
        self._rejects_untouched(target, snap, f"version {version!r}")

    def test_restore_accepts_snapshot_with_arena_layout(self):
        """Older version-2 snapshots also carry the arena's slot
        layout; restore ignores it."""
        service = self.build()
        snap = json.loads(json.dumps(service.snapshot()))
        names = [row["name"] for row in snap["roster"]]
        snap["arena"] = {
            "capacity": 64, "next_slot": len(names) + 1,
            "free_slots": [0],
            "slots": {name: i + 1 for i, name in enumerate(names)},
        }
        clone = rack_service()
        clone.restore(snap)
        assert "arena" not in clone.snapshot()
        assert clone.snapshot() == service.snapshot()
        for svc in (service, clone):
            svc.submit(tenant("next", budget=21.0))
            svc.step()
        assert clone.snapshot() == service.snapshot()

    @pytest.mark.parametrize("fabric", [
        lambda: Fabric(8, 16),
        lambda: Fabric(16, 8, bank_columns=range(0, 16, 2)),
    ], ids=["transposed", "bank_columns"])
    def test_restore_rejects_fabric_geometry_mismatch(self, fabric):
        """Same slice and bank counts (so the supplies match), but a
        different mesh: restoring would re-claim tile ids that mean
        other tiles here."""
        snap = json.loads(json.dumps(self.build().snapshot()))
        target = AllocationService(fabric=fabric())
        assert (target.slice_supply, target.bank_supply) == (
            snap["config"]["slice_supply"], snap["config"]["bank_supply"])
        self._rejects_untouched(target, snap, "snapshot fabric_")

    def test_restore_passes_invariants(self):
        service = self.build()
        clone = rack_service()
        clone.restore(service.snapshot())
        verify_invariants(clone)
